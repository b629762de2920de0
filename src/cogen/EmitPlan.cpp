//===- cogen/EmitPlan.cpp - Staged emit-plan builder -------------------------------===//
//
// Compiles a GenExtFunction into the emit program described in
// EmitPlan.h. For every EmitInstr the builder runs the specializer's own
// emit semantics — the DeferralEngineT template of runtime/Deferral.h,
// the code the concrete specializer runs — in the Symbolic value domain
// defined here: specialize-time values are PlanRefs (plan-time literals,
// static-register reads, derived expressions), immediates become holes,
// and every charge and RegionStats bump becomes a count on the open step.
// What this file adds is step, guard, seed and rollback management.
//
// Where the semantics test a *value* (zero/copy-propagation 0/1 tests,
// power-of-two strength-reduction tests, Div/Rem fold-failure tests), the
// builder ends the path in a Branch guard whose arms are both unbuilt, and
// saves the path's symbolic state as the guard's seed. A test with no
// assumption yet is reported as a status, not thrown: the op's simulation
// records it and finishes, then the op is rolled back. The first
// specialization that takes an arm builds it (buildBranchArm): the seed is
// restored, the outcome is memoized as an assumption so the same test
// never re-forks on that path, and the op is re-simulated under it.
// Outcomes no key takes are never compiled. A small per-block guard budget
// bounds the expansion; a path that exhausts it falls back to Generic
// steps for its remaining ops. Before any Generic suffix — and at the end
// of every fully compiled path — a Sync step reconstructs the live
// deferral table, so the concrete domain and the driver's terminator
// handling observe exactly the state the reference walk would have left.
//
//===----------------------------------------------------------------------===//

#include "cogen/EmitPlan.h"

#include "runtime/Deferral.h"

#include <algorithm>
#include <optional>

namespace dyc {
namespace cogen {

using ir::Opcode;
using runtime::Charge;
using runtime::Concrete;

namespace {

template <typename T> uint64_t bytesOf(const std::vector<T> &V) {
  return V.size() * sizeof(T);
}

PlanPredKey predKey(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
  return {static_cast<uint8_t>(Pk), static_cast<uint8_t>(A.K), A.Idx,
          Cmp.Bits};
}

/// The plan-time value domain of the emit semantics.
class Symbolic {
public:
  using Value = PlanRef;
  struct Env {}; ///< static registers are read when the plan runs

  explicit Symbolic(BlockPlan &BP) : BP(BP) {}

  /// The step that emits and counts land in: a Copy step while an op runs.
  PlanStep Open;
  /// The value-test outcomes the current path has committed to.
  std::vector<PlanPath::Assumption> Assumed;
  /// The op's status: the first value test of the op being simulated that
  /// the path holds no assumption for. Cleared before each op.
  std::optional<PlanBranch> Need;

  static PlanRef staticValue(const Env &, uint32_t Reg) {
    return PlanRef::stat(Reg);
  }
  static PlanRef lit(Word W) { return PlanRef::lit(W); }
  static int64_t literal(PlanRef R) {
    assert(R.K == PlanRef::Lit && "load/store offsets are plan literals");
    return R.L.asInt();
  }

  /// Refs stored into the table must survive until sync or a later
  /// materialization, past set-up evaluation that may overwrite static
  /// registers — so raw static reads are captured into the current step's
  /// expression range (evaluated exactly when the walk would read them).
  PlanRef stable(PlanRef R) {
    if (R.K != PlanRef::Static)
      return R;
    return expr(PlanExpr::Pure, Opcode::Mov, R, PlanRef());
  }

  bool eqBits(PlanRef A, Word Cmp) {
    return assume(PlanBranch::EqBits, A, Cmp);
  }
  bool pow2Ge2(PlanRef A) { return assume(PlanBranch::Pow2Ge2, A, Word()); }

  PlanRef log2(PlanRef A) {
    if (A.K == PlanRef::Lit)
      return PlanRef::lit(Concrete::log2(A.L));
    return expr(PlanExpr::Log2, Opcode::Mov, A, PlanRef());
  }

  /// op(A, B): folded now when both sides are plan literals, else a
  /// derived expression captured at the current step. evalPureOp fails
  /// only for integer division by zero, so that test guards.
  bool fold(Opcode Op, PlanRef A, PlanRef B, PlanRef &Out) {
    if ((Op == Opcode::Div || Op == Opcode::Rem) &&
        eqBits(B, Word::fromInt(0)))
      return false;
    Word W;
    if (A.K == PlanRef::Lit && B.K == PlanRef::Lit &&
        Concrete::fold(Op, A.L, B.L, W))
      Out = PlanRef::lit(W);
    else
      Out = expr(PlanExpr::Pure, Op, A, B);
    return true;
  }

  void charge(Charge K) { ++Open.count(K); }
  void count(runtime::Stat K) { ++Open.count(K); }
  void emit(vm::Instr I) {
    BP.Template.push_back(I);
    charge(Charge::Emit);
  }
  /// Emits \p I whose Imm field is \p V + \p Add: baked now for a literal,
  /// else a hole the runner patches.
  void emitImm(vm::Instr I, PlanRef V, int64_t Add) {
    if (V.K == PlanRef::Lit)
      I.Imm = wrapAdd(V.L.asInt(), Add);
    else
      BP.Holes.push_back({static_cast<uint32_t>(BP.Template.size()), Add, V});
    emit(I);
  }

private:
  /// Resolves one value test: literals decide now; otherwise the path's
  /// recorded assumption applies. A test with no assumption answers false
  /// and, if it is the op's first, becomes the op's status (Need). "False"
  /// never folds anything at plan time, so the rest of the op simulates
  /// harmlessly before the builder rolls it back.
  bool assume(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
    if (A.K == PlanRef::Lit)
      return Pk == PlanBranch::EqBits ? Concrete::eqBits(A.L, Cmp)
                                      : Concrete::pow2Ge2(A.L);
    const PlanPredKey K = predKey(Pk, A, Cmp);
    for (const PlanPath::Assumption &As : Assumed)
      if (As.K == K)
        return As.Holds;
    if (!Need)
      Need = PlanBranch{Pk, A, Cmp};
    return false;
  }

  PlanRef expr(PlanExpr::Kind K, Opcode Op, PlanRef A, PlanRef B) {
    BP.Exprs.push_back({K, Op, A, B});
    return PlanRef::expr(static_cast<uint32_t>(BP.Exprs.size()) - 1);
  }

  BlockPlan &BP;
};

/// Builds one BlockPlan by running the emit semantics symbolically.
class BlockBuilder {
public:
  BlockBuilder(const GenExtFunction &GX, const OptFlags &Flags,
               const GenBlock &GB, BlockPlan &BP)
      : GB(GB), BP(BP), Dom(BP), Eng(Dom, Flags, GX) {}

  void build() { buildFrom(0); }

  /// Restores guard \p BI's seed, commits the path to the \p Taken
  /// outcome, and compiles the arm from the guard's op on.
  void buildArm(uint32_t BI, bool Taken) {
    PlanBranch &Br = BP.Branches[BI];
    uint32_t &Target = Taken ? Br.True : Br.False;
    assert(Target == PlanBranch::Unbuilt && "guard arm built twice");
    Target = static_cast<uint32_t>(BP.Steps.size());
    const PlanPredKey K = predKey(Br.P, Br.A, Br.Cmp);
    PlanArmSeed &Seed = BP.Seeds[BI];
    const uint32_t OpIdx = Seed.OpIdx;
    PlanPath P;
    if ((Taken ? Br.False : Br.True) == PlanBranch::Unbuilt) {
      P = Seed.Path;
    } else {
      P = std::move(Seed.Path);
      Seed = PlanArmSeed(); // both arms exist: free the seed
    }
    // Br and Seed may dangle from here on: building pushes to Branches
    // and Seeds.
    Eng.T = std::move(P.Table);
    Dom.Assumed = std::move(P.Assumed);
    Dom.Assumed.push_back({K, Taken});
    buildFrom(OpIdx);
  }

  /// Bytes of the arm seeds this builder saved.
  uint64_t seedBytes() const { return SeedBytes; }

private:
  /// Guards a block builds before paths stop forking and bail to
  /// Generic. Arms are compiled only when a specialization takes them, so
  /// this caps the arms a block ever builds (each guard has two), and with
  /// them plan size, on adversarial inputs, while covering every test the
  /// Table 3 kernels' largest unrolled bodies perform.
  static constexpr size_t MaxGuards = 96;

  const GenBlock &GB;
  BlockPlan &BP;
  Symbolic Dom;
  runtime::DeferralEngineT<Symbolic> Eng;
  uint64_t SeedBytes = 0;
  bool HaveOpen = false; ///< Dom.Open is a step not yet pushed

  /// Rollback image for one op's transactional simulation. An op never
  /// pushes steps or evals, so table state, the open step, and the shared
  /// array cursors are the whole footprint. Assumptions are read-only
  /// during simulation.
  struct Snap {
    runtime::DeferralTable<PlanRef> Table;
    PlanStep Open;
    bool HaveOpen;
    size_t NTemplate, NHoles, NExprs;
  };

  Snap snapshot() const {
    return {Eng.T,          Dom.Open,       HaveOpen,
            BP.Template.size(), BP.Holes.size(), BP.Exprs.size()};
  }

  void rollback(Snap &&S) {
    Eng.T = std::move(S.Table);
    Dom.Open = S.Open;
    HaveOpen = S.HaveOpen;
    BP.Template.resize(S.NTemplate);
    BP.Holes.resize(S.NHoles);
    BP.Exprs.resize(S.NExprs);
  }

  // -- Step management -------------------------------------------------------

  void flush() {
    if (!HaveOpen)
      return;
    HaveOpen = false;
    PlanStep &Open = Dom.Open;
    if (Open.K == PlanStep::EvalRun) {
      Open.Count = static_cast<uint32_t>(BP.Evals.size()) - Open.First;
    } else {
      Open.Count = static_cast<uint32_t>(BP.Template.size()) - Open.First;
      Open.HoleCount = static_cast<uint32_t>(BP.Holes.size()) - Open.HoleFirst;
      Open.ExprCount = static_cast<uint32_t>(BP.Exprs.size()) - Open.ExprFirst;
      // An op that reduced to nothing (a full-circle move) can leave a
      // step with no work and no charges: drop it.
      auto Zero = [](uint32_t N) { return N == 0; };
      if (Open.Count == 0 && Open.HoleCount == 0 && Open.ExprCount == 0 &&
          std::all_of(std::begin(Open.Charges), std::end(Open.Charges),
                      Zero) &&
          std::all_of(std::begin(Open.Stats), std::end(Open.Stats), Zero))
        return;
    }
    BP.Steps.push_back(Open);
  }

  void open(PlanStep::Kind K) {
    PlanStep &Open = Dom.Open;
    Open = PlanStep{};
    Open.K = K;
    Open.First = static_cast<uint32_t>(
        K == PlanStep::EvalRun ? BP.Evals.size() : BP.Template.size());
    Open.HoleFirst = static_cast<uint32_t>(BP.Holes.size());
    Open.ExprFirst = static_cast<uint32_t>(BP.Exprs.size());
    HaveOpen = true;
  }

  void appendStep(PlanStep::Kind K, uint32_t First = 0, uint32_t Count = 0) {
    PlanStep S;
    S.K = K;
    S.First = First;
    S.Count = Count;
    BP.Steps.push_back(S);
  }

  /// Reconstructs the live deferral table from the symbolic one: pending
  /// entries in order, producer links remapped to compacted indices (a
  /// link to an already-dead producer is cleared — forceOperand skips it
  /// either way). Dead entries are dropped entirely: nothing downstream
  /// can observe them.
  void appendSync() {
    const auto &Entries = Eng.T.Entries;
    std::vector<int32_t> Remap(Entries.size(), -1);
    auto remap = [&](int32_t Dep) {
      return Dep < 0 ? -1 : Remap[static_cast<size_t>(Dep)];
    };
    uint32_t First = static_cast<uint32_t>(BP.Syncs.size());
    uint32_t Count = 0;
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (!Entries[I].Pending)
        continue;
      Remap[I] = static_cast<int32_t>(Count++);
      runtime::DeferredEntry<PlanRef> S = Entries[I];
      S.A.Dep = remap(S.A.Dep);
      S.B.Dep = remap(S.B.Dep);
      BP.Syncs.push_back(S);
    }
    if (Count)
      appendStep(PlanStep::Sync, First, Count);
  }

  /// Guard budget exhausted: sync the table and run every remaining op
  /// at specialize time in the concrete domain.
  void bailGeneric(uint32_t OpIdx) {
    flush();
    appendSync();
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I)
      appendStep(PlanStep::Generic, I);
    appendStep(PlanStep::End);
  }

  // -- Path driver -----------------------------------------------------------

  /// Compiles ops [OpIdx, end) plus the path epilogue (table sync + End)
  /// under the current symbolic state, or up to the first value test the
  /// path holds no assumption for, which ends the path in a guard.
  void buildFrom(uint32_t OpIdx) {
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I) {
      const SetupOp &Op = GB.Ops[I];
      if (Op.K == SetupOp::EvalCall) {
        // Memoized static call: re-enters the VM (and possibly the
        // specializer). It never touches the deferral table, so the
        // symbolic state carries straight across it.
        flush();
        appendStep(PlanStep::Generic, I);
        continue;
      }
      if (Op.K != SetupOp::EmitInstr) {
        if (!HaveOpen || Dom.Open.K != PlanStep::EvalRun) {
          flush();
          open(PlanStep::EvalRun);
        }
        PlanEval E;
        E.Dst = Op.Dst;
        if (Op.K == SetupOp::EvalConst) {
          E.K = PlanEval::Const;
          E.Imm = Op.Imm;
        } else if (Op.K == SetupOp::Eval) {
          E.K = PlanEval::Pure;
          E.Op = Op.Op;
          E.A = Op.A.R;
          E.B = Op.B.R; // ir::NoReg when unary
        } else {
          E.K = PlanEval::Load;
          E.A = Op.A.R;
          E.Imm = Op.Imm;
        }
        BP.Evals.push_back(E);
        ++Dom.Open.count(Op.K == SetupOp::EvalLoad ? Charge::StaticLoad
                                                   : Charge::EvalOp);
        continue;
      }
      // EmitInstr simulation runs with a Copy step open; an EvalRun is
      // flushed *before* the transactional region so rollback never has
      // to un-push a step.
      if (HaveOpen && Dom.Open.K == PlanStep::EvalRun)
        flush();
      if (!HaveOpen)
        open(PlanStep::Copy);
      Snap S = snapshot();
      Dom.Need.reset();
      Eng.emitDynamic(Op, Symbolic::Env());
      if (!Dom.Need)
        continue;
      // A value test had no assumption on this path: undo the op and end
      // the path in a guard on the test, both arms unbuilt. The path's
      // state becomes the guard's seed; buildArm resumes from it at this
      // op when a specialization first takes an arm.
      rollback(std::move(S));
      flush();
      if (BP.Branches.size() >= MaxGuards) {
        bailGeneric(I);
        return;
      }
      appendStep(PlanStep::Branch, static_cast<uint32_t>(BP.Branches.size()));
      BP.Branches.push_back(*Dom.Need);
      SeedBytes += bytesOf(Eng.T.Entries) + bytesOf(Eng.T.Latest) +
                   bytesOf(Dom.Assumed);
      BP.Seeds.push_back({{std::move(Eng.T), std::move(Dom.Assumed)}, I});
      return;
    }
    flush();
    appendSync();
    appendStep(PlanStep::End);
  }
};

/// Bytes of BP's program arrays. The contents of arm seeds are counted by
/// the builder that saves them.
uint64_t programBytes(const BlockPlan &BP) {
  return bytesOf(BP.Steps) + bytesOf(BP.Evals) + bytesOf(BP.Template) +
         bytesOf(BP.Holes) + bytesOf(BP.Exprs) + bytesOf(BP.Syncs) +
         bytesOf(BP.Branches) + bytesOf(BP.Seeds);
}

} // namespace

uint64_t createEmitPlan(const GenExtFunction &GX, EmitPlan &Plan) {
  Plan.Blocks.resize(GX.Blocks.size());
  uint64_t Bytes = sizeof(EmitPlan) + bytesOf(Plan.Blocks);
  for (uint32_t Ctx = 0; Ctx != GX.Blocks.size(); ++Ctx) {
    std::vector<uint32_t> &Regs = Plan.Blocks[Ctx].KeyRegs;
    GX.Region.context(Ctx).StaticIn.forEachSetBit(
        [&](size_t Reg) { Regs.push_back(static_cast<uint32_t>(Reg)); });
    Bytes += bytesOf(Regs);
  }
  return Bytes;
}

uint64_t buildBlockPlan(const GenExtFunction &GX, const OptFlags &Flags,
                        uint32_t Ctx, BlockPlan &BP) {
  assert(!BP.built() && "block program built twice");
  BlockBuilder B(GX, Flags, GX.Blocks[Ctx], BP);
  B.build();
  return programBytes(BP) + B.seedBytes();
}

uint64_t buildBranchArm(const GenExtFunction &GX, const OptFlags &Flags,
                        uint32_t Ctx, BlockPlan &BP, uint32_t Branch,
                        bool Taken) {
  const uint64_t Before = programBytes(BP);
  BlockBuilder B(GX, Flags, GX.Blocks[Ctx], BP);
  B.buildArm(Branch, Taken);
  return programBytes(BP) - Before + B.seedBytes();
}

} // namespace cogen
} // namespace dyc
