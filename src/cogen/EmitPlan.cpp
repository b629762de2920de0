//===- cogen/EmitPlan.cpp - Staged emit-plan builder -------------------------------===//
//
// Compiles a GenExtFunction into the emit program described in
// EmitPlan.h. The builder is a *plan-time symbolic execution* of the
// specializer's middle and bottom layers: for every EmitInstr it
// re-traces exactly the path DeferralEngine::emitDynamic and
// Emitter::emitResolved would take, with specialize-time values
// abstracted to PlanRefs (plan-time literals, static-register reads,
// derived expressions) and the deferral table tracked symbolically —
// pending entries, copy/constant propagation through reads, dead-
// assignment kills, forced materializations. Every chargeDynComp call
// and every RegionStats bump the legacy engines would make is recorded
// as a per-step count, which is what makes the plan bit-identical to
// the walk by construction.
//
// Where the legacy decision tree forks on a *value* (zero/copy-
// propagation 0/1 tests, power-of-two strength-reduction tests,
// Div/Rem fold-failure tests), the builder ends the path in a Branch
// guard whose arms are both unbuilt, and saves the path's symbolic state
// as the guard's seed. A test with no assumption yet is reported as a
// status, not thrown: the op's simulation records it and finishes, then
// the op is rolled back. The first specialization that takes an arm
// builds it (buildBranchArm): the seed is restored, the outcome is
// memoized as an assumption so the same test never re-forks on that
// path, and the op is re-simulated under it. Outcomes no key takes are
// never compiled. A small per-block guard budget bounds the expansion; a
// path that exhausts it falls back to Generic steps for its remaining ops.
// Before any Generic suffix — and at the end of every fully compiled
// path — a Sync step reconstructs the live deferral table, so the
// legacy interpreter and the driver's terminator handling observe
// exactly the state the walk would have left.
//
//===----------------------------------------------------------------------===//

#include "cogen/EmitPlan.h"

#include "ir/ConstEval.h"
#include "runtime/Emitter.h"

#include <cstdlib>
#include <cstring>
#include <optional>

namespace dyc {
namespace cogen {

using ir::Opcode;
namespace v = vm;

namespace {

using LatestDef = PlanPath::LatestDef;

template <typename T> uint64_t bytesOf(const std::vector<T> &V) {
  return V.size() * sizeof(T);
}

/// Builds one BlockPlan by symbolically executing the legacy walk.
class BlockBuilder {
public:
  BlockBuilder(const GenExtFunction &GX, const OptFlags &Flags,
               const GenBlock &GB, BlockPlan &BP)
      : GX(GX), Flags(Flags), GB(GB), BP(BP) {}

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
    if ((Taken ? Br.False : Br.True) == PlanBranch::Unbuilt) {
      P = Seed.Path;
    } else {
      P = std::move(Seed.Path);
      Seed = PlanArmSeed(); // both arms exist: free the seed
    }
    // Br and Seed may dangle from here on: building pushes to Branches
    // and Seeds.
    P.Assumed.push_back({K, Taken});
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

  const GenExtFunction &GX;
  const OptFlags &Flags;
  const GenBlock &GB;
  BlockPlan &BP;

  /// The current path's symbolic state; a guard saves it as its seed.
  PlanPath P;
  uint64_t SeedBytes = 0;
  PlanStep Open;
  bool HaveOpen = false;

  /// The op's status: the first value test of the op being simulated
  /// that the path holds no assumption for. Set by assume(), cleared
  /// before each op.
  std::optional<PlanBranch> Need;

  /// Rollback image for one op's transactional simulation. An op never
  /// pushes steps or evals, so table state, the open step, and the shared
  /// array cursors are the whole footprint. Assumptions are read-only
  /// during simulation.
  struct Snap {
    std::vector<PlanTableEntry> Table;
    std::vector<LatestDef> Latest;
    PlanStep Open;
    bool HaveOpen;
    size_t NTemplate, NHoles, NExprs;
  };

  Snap snapshot() const {
    return {P.Table,          P.Latest,        Open,
            HaveOpen,         BP.Template.size(), BP.Holes.size(),
            BP.Exprs.size()};
  }

  void rollback(Snap &&S) {
    P.Table = std::move(S.Table);
    P.Latest = std::move(S.Latest);
    Open = S.Open;
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
    if (Open.K == PlanStep::EvalRun) {
      Open.Count = static_cast<uint32_t>(BP.Evals.size()) - Open.First;
    } else {
      Open.Count = static_cast<uint32_t>(BP.Template.size()) - Open.First;
      Open.HoleCount = static_cast<uint32_t>(BP.Holes.size()) - Open.HoleFirst;
      Open.ExprCount = static_cast<uint32_t>(BP.Exprs.size()) - Open.ExprFirst;
      // An op that reduced to nothing (a full-circle move) can leave a
      // step with no work and no charges: drop it.
      if (Open.Count == 0 && Open.HoleCount == 0 && Open.ExprCount == 0 &&
          Open.EvalOps == 0 && Open.Emits == 0 && Open.EmitHoles == 0 &&
          Open.ZcpChecks == 0 && Open.SrChecks == 0 && Open.TableOps == 0 &&
          Open.ZcpApplied == 0 && Open.StrengthReduced == 0 &&
          Open.DeadAssigns == 0 && Open.Materialized == 0)
        return;
    }
    BP.Steps.push_back(Open);
  }

  void openEvalRun() {
    if (HaveOpen && Open.K == PlanStep::EvalRun)
      return;
    flush();
    Open = PlanStep{};
    Open.K = PlanStep::EvalRun;
    Open.First = static_cast<uint32_t>(BP.Evals.size());
    HaveOpen = true;
  }

  /// EmitInstr simulation runs with a Copy step open; callers flush any
  /// EvalRun *before* the transactional region so rollback never has to
  /// un-push a step.
  void openCopy() {
    if (HaveOpen)
      return;
    Open = PlanStep{};
    Open.K = PlanStep::Copy;
    Open.First = static_cast<uint32_t>(BP.Template.size());
    Open.HoleFirst = static_cast<uint32_t>(BP.Holes.size());
    Open.ExprFirst = static_cast<uint32_t>(BP.Exprs.size());
    HaveOpen = true;
  }

  void appendGeneric(uint32_t OpIdx) {
    flush();
    PlanStep S;
    S.K = PlanStep::Generic;
    S.First = OpIdx;
    BP.Steps.push_back(S);
  }

  void appendEnd() {
    PlanStep S;
    S.K = PlanStep::End;
    BP.Steps.push_back(S);
  }

  /// Reconstructs the live deferral table from the symbolic one: pending
  /// entries in order, producer links remapped to compacted indices (a
  /// link to an already-dead producer is cleared — forceOperand skips it
  /// either way). Dead entries are dropped entirely: nothing downstream
  /// can observe them.
  void appendSync() {
    std::vector<int32_t> Remap(P.Table.size(), -1);
    uint32_t First = static_cast<uint32_t>(BP.Syncs.size());
    uint32_t Count = 0;
    for (size_t I = 0; I != P.Table.size(); ++I) {
      const PlanTableEntry &E = P.Table[I];
      if (!E.Pending)
        continue;
      Remap[I] = static_cast<int32_t>(Count++);
      PlanTableEntry S = E;
      S.A.Dep = remapDep(E.A.Dep, Remap);
      S.B.Dep = remapDep(E.B.Dep, Remap);
      BP.Syncs.push_back(S);
    }
    if (!Count)
      return;
    PlanStep S;
    S.K = PlanStep::Sync;
    S.First = First;
    S.Count = Count;
    BP.Steps.push_back(S);
  }

  static int32_t remapDep(int32_t Dep, const std::vector<int32_t> &Remap) {
    return Dep < 0 ? -1 : Remap[static_cast<size_t>(Dep)];
  }

  /// Guard budget exhausted (or a deliberately uncompiled op): sync the
  /// table and run every remaining op through the legacy interpreter.
  void bailGeneric(uint32_t OpIdx) {
    flush();
    appendSync();
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I) {
      PlanStep S;
      S.K = PlanStep::Generic;
      S.First = I;
      BP.Steps.push_back(S);
    }
    appendEnd();
  }

  // -- Path driver -----------------------------------------------------------

  /// Compiles ops [OpIdx, end) plus the path epilogue (table sync + End)
  /// under the current symbolic state, or up to the first value test the
  /// path holds no assumption for, which ends the path in a guard.
  void buildFrom(uint32_t OpIdx) {
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I) {
      const SetupOp &Op = GB.Ops[I];
      switch (Op.K) {
      case SetupOp::EvalConst: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Const;
        E.Dst = Op.Dst;
        E.Imm = Op.Imm;
        BP.Evals.push_back(E);
        ++Open.EvalOps;
        continue;
      }
      case SetupOp::Eval: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Pure;
        E.Op = Op.Op;
        E.Dst = Op.Dst;
        E.A = Op.A.R;
        E.B = Op.B.R; // ir::NoReg when unary
        BP.Evals.push_back(E);
        ++Open.EvalOps;
        continue;
      }
      case SetupOp::EvalLoad: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Load;
        E.Dst = Op.Dst;
        E.A = Op.A.R;
        E.Imm = Op.Imm;
        BP.Evals.push_back(E);
        ++Open.StaticLoads;
        continue;
      }
      case SetupOp::EvalCall:
        // Memoized static call: re-enters the VM (and possibly the
        // specializer). It never touches the deferral table, so the
        // symbolic state carries straight across it.
        appendGeneric(I);
        continue;
      case SetupOp::EmitInstr: {
        if (HaveOpen && Open.K == PlanStep::EvalRun)
          flush();
        Snap S = snapshot();
        Need.reset();
        simEmit(Op);
        if (!Need)
          continue;
        // A value test had no assumption on this path: undo the op and
        // end the path in a guard on the test, both arms unbuilt. The
        // path's state becomes the guard's seed; buildArm resumes from it
        // at this op when a specialization first takes an arm.
        rollback(std::move(S));
        flush();
        if (BP.Branches.size() >= MaxGuards) {
          bailGeneric(I);
          return;
        }
        PlanStep BS;
        BS.K = PlanStep::Branch;
        BS.First = static_cast<uint32_t>(BP.Branches.size());
        BP.Steps.push_back(BS);
        BP.Branches.push_back(*Need);
        SeedBytes += bytesOf(P.Table) + bytesOf(P.Latest) + bytesOf(P.Assumed);
        BP.Seeds.push_back({std::move(P), I});
        return;
      }
      }
    }
    flush();
    appendSync();
    appendEnd();
  }

  // -- Assumption machinery --------------------------------------------------

  static PlanPredKey predKey(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
    return {static_cast<uint8_t>(Pk), static_cast<uint8_t>(A.K), A.Idx,
            Cmp.Bits};
  }

  /// Resolves one value test: literals decide now; otherwise the path's
  /// recorded assumption applies. A test with no assumption answers false
  /// and, if it is the op's first, becomes the op's status (Need).
  /// "False" never folds anything at plan time, so the rest of the op
  /// simulates harmlessly before buildFrom rolls it back.
  bool assume(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
    if (A.K == PlanRef::Lit) {
      if (Pk == PlanBranch::EqBits)
        return A.L.Bits == Cmp.Bits;
      int64_t V = A.L.asInt();
      return isPowerOf2(V) && V >= 2;
    }
    const PlanPredKey K = predKey(Pk, A, Cmp);
    for (const PlanPath::Assumption &As : P.Assumed)
      if (As.K == K)
        return As.Holds;
    if (!Need)
      Need = PlanBranch{Pk, A, Cmp};
    return false;
  }

  // -- Flat Latest map -------------------------------------------------------

  LatestDef *latest(uint32_t Reg) {
    for (LatestDef &L : P.Latest)
      if (L.Reg == Reg)
        return &L;
    return nullptr;
  }

  void eraseLatest(LatestDef *L) {
    *L = P.Latest.back();
    P.Latest.pop_back();
  }

  // -- Value plumbing --------------------------------------------------------

  uint32_t newExpr(PlanExpr::Kind K, Opcode Op, PlanRef A, PlanRef B) {
    PlanExpr E;
    E.K = K;
    E.Op = Op;
    E.A = A;
    E.B = B;
    BP.Exprs.push_back(E);
    return static_cast<uint32_t>(BP.Exprs.size()) - 1;
  }

  /// op(A, B) as a ref: folded now when both sides are plan literals
  /// (the fold can't fail — Div/Rem-by-zero was guarded by the caller),
  /// else a derived expression captured at the current step.
  PlanRef symEval(Opcode Op, PlanRef A, PlanRef B) {
    if (A.K == PlanRef::Lit && B.K == PlanRef::Lit) {
      Word Out;
      if (ir::evalPureOp(Op, A.L, B.L, Out))
        return PlanRef::lit(Out);
    }
    return PlanRef::expr(newExpr(PlanExpr::Pure, Op, A, B));
  }

  PlanRef log2Ref(PlanRef A) {
    if (A.K == PlanRef::Lit)
      return PlanRef::lit(Word::fromInt(log2OfPow2(A.L.asInt())));
    return PlanRef::expr(newExpr(PlanExpr::Log2, Opcode::Mov, A, PlanRef()));
  }

  /// Refs stored into the symbolic table must survive until sync or a
  /// later materialization, past set-up evaluation that may overwrite
  /// static registers — so raw static reads are captured into the current
  /// step's expression range (evaluated exactly when the legacy walk
  /// would have read them).
  PlanRef stabilize(PlanRef R) {
    if (R.K != PlanRef::Static)
      return R;
    return PlanRef::expr(newExpr(PlanExpr::Pure, Opcode::Mov, R, PlanRef()));
  }

  PlanOperand stabilizeVal(PlanOperand V) {
    if (V.IsConst)
      V.C = stabilize(V.C);
    return V;
  }

  // -- Copy-template mirror of the Emitter primitives -----------------------

  void raw(v::Instr I) {
    BP.Template.push_back(I);
    ++Open.Emits;
  }

  /// emitRaw whose Imm field is bits(\p Ref) + \p Add (no hole charge —
  /// the legacy site writes the field directly).
  void rawImm(v::Instr I, PlanRef Ref, int64_t Add) {
    if (Ref.K == PlanRef::Lit) {
      I.Imm = static_cast<int64_t>(Ref.L.Bits) + Add;
      raw(I);
      return;
    }
    PlanHole H;
    H.InstrIdx = static_cast<uint32_t>(BP.Template.size());
    H.Add = Add;
    H.Ref = Ref;
    BP.Holes.push_back(H);
    raw(I);
  }

  /// Emitter::emitConst: one hole charge, then the constant instruction.
  /// ConstI's C.asInt() and ConstF's C.Bits are the same 64-bit image.
  void emitConstSym(uint32_t Dst, PlanRef C, ir::Type Ty) {
    ++Open.EmitHoles;
    rawImm({Ty == ir::Type::F64 ? v::Op::ConstF : v::Op::ConstI, Dst}, C, 0);
  }

  static int64_t litImm(const PlanRef &R) {
    assert(R.K == PlanRef::Lit && "load/store offsets are plan literals");
    return R.L.asInt();
  }

  /// Plan-time mirror of Emitter::emitResolved (operands carrying a
  /// still-pending producer were forced by the caller, as in the legacy
  /// engine).
  void emitResolvedSym(Opcode Op, ir::Type Ty, uint32_t Dst,
                       const PlanOperand &A, const PlanOperand &B,
                       PlanRef Imm) {
    switch (Op) {
    case Opcode::ConstI:
    case Opcode::ConstF:
      emitConstSym(Dst, Imm, Ty);
      return;
    case Opcode::Mov:
      if (A.IsConst) {
        emitConstSym(Dst, A.C, Ty);
      } else if (A.R != Dst) {
        raw({Ty == ir::Type::F64 ? v::Op::FMov : v::Op::Mov, Dst, A.R});
      }
      return;
    case Opcode::Neg:
    case Opcode::FNeg:
    case Opcode::IToF:
    case Opcode::FToI:
      if (A.IsConst) {
        // evalPureOp never fails on these unary forms.
        emitConstSym(Dst, symEval(Op, A.C, PlanRef()), Ty);
        return;
      }
      raw({runtime::vmOpOf(Op), Dst, A.R});
      return;
    case Opcode::Load:
      if (A.IsConst) {
        ++Open.EmitHoles;
        rawImm({v::Op::LoadAbs, Dst}, A.C, litImm(Imm));
      } else {
        raw({v::Op::Load, Dst, A.R, 0, litImm(Imm)});
      }
      return;
    case Opcode::Store: {
      // A = address, B = value.
      uint32_t ValReg = B.R;
      if (B.IsConst) {
        emitConstSym(GX.Scratch0, B.C, ir::Type::I64);
        ValReg = GX.Scratch0;
      }
      if (A.IsConst) {
        ++Open.EmitHoles;
        rawImm({v::Op::StoreAbs, ValReg}, A.C, litImm(Imm));
      } else {
        raw({v::Op::Store, ValReg, A.R, 0, litImm(Imm)});
      }
      return;
    }
    default:
      break;
    }

    // Binary arithmetic / comparison.
    if (A.IsConst && B.IsConst) {
      bool Folds = true;
      if (Op == Opcode::Div || Op == Opcode::Rem)
        Folds = !assume(PlanBranch::EqBits, B.C, Word::fromInt(0));
      if (Folds) {
        emitConstSym(Dst, symEval(Op, A.C, B.C), Ty);
        return;
      }
      // Unfoldable (division by zero): emit faithfully so the fault
      // happens at run time, as it would have in static code.
      emitConstSym(GX.Scratch0, A.C, ir::Type::I64);
      emitConstSym(GX.Scratch1, B.C, ir::Type::I64);
      raw({runtime::vmOpOf(Op), Dst, GX.Scratch0, GX.Scratch1});
      return;
    }
    if (!A.IsConst && B.IsConst) {
      v::Op IF = runtime::immFormOf(Op);
      if (IF != v::Op::Halt) {
        ++Open.EmitHoles;
        rawImm({IF, Dst, A.R}, B.C, 0);
        return;
      }
      bool FloatOperand = Op == Opcode::FCmpEq || Op == Opcode::FCmpNe ||
                          Op == Opcode::FCmpLt || Op == Opcode::FCmpLe ||
                          Op == Opcode::FCmpGt || Op == Opcode::FCmpGe;
      emitConstSym(GX.Scratch1, B.C,
                   FloatOperand ? ir::Type::F64 : ir::Type::I64);
      raw({runtime::vmOpOf(Op), Dst, A.R, GX.Scratch1});
      return;
    }
    if (A.IsConst && !B.IsConst) {
      if (runtime::isCommutativeOpcode(Op)) {
        emitResolvedSym(Op, Ty, Dst, B, A, Imm);
        return;
      }
      Opcode Mirrored = runtime::mirrorCompare(Op);
      if (Mirrored != Op) {
        emitResolvedSym(Mirrored, Ty, Dst, B, A, Imm);
        return;
      }
      bool FloatOperand = Op == Opcode::FSub || Op == Opcode::FDiv;
      emitConstSym(GX.Scratch0, A.C,
                   FloatOperand ? ir::Type::F64 : ir::Type::I64);
      raw({runtime::vmOpOf(Op), Dst, GX.Scratch0, B.R});
      return;
    }
    raw({runtime::vmOpOf(Op), Dst, A.R, B.R});
  }

  // -- Symbolic DeferralEngine ----------------------------------------------

  void materialize(size_t Idx) {
    PlanTableEntry &D = P.Table[Idx];
    if (!D.Pending)
      return;
    D.Pending = false;
    if (LatestDef *L = latest(D.Dst); L && L->Idx == Idx)
      eraseLatest(L);
    ++Open.Materialized;
    force(D.A);
    force(D.B);
    emitResolvedSym(D.Op, D.Ty, D.Dst, D.A, D.B, D.Imm);
  }

  void force(const PlanOperand &A) {
    if (A.Dep >= 0 && P.Table[static_cast<size_t>(A.Dep)].Pending)
      materialize(static_cast<size_t>(A.Dep));
  }

  PlanOperand readResolve(uint32_t Reg) {
    uint32_t Cur = Reg;
    while (true) {
      const LatestDef *L = latest(Cur);
      if (!L)
        return PlanOperand::reg(Cur);
      PlanTableEntry &D = P.Table[L->Idx];
      ++Open.TableOps; // charge(CM.SpecZcpTableOp)
      if (D.Op == Opcode::Mov) {
        if (D.A.IsConst)
          return D.A;
        Cur = D.A.R;
        continue;
      }
      if (D.Op == Opcode::ConstI || D.Op == Opcode::ConstF)
        return PlanOperand::cst(D.Imm);
      return PlanOperand::reg(Cur, static_cast<int32_t>(L->Idx));
    }
  }

  PlanOperand resolve(const Operand &O) {
    if (O.R == ir::NoReg)
      return PlanOperand();
    if (O.Static)
      return PlanOperand::cst(PlanRef::stat(O.R));
    return readResolve(O.R);
  }

  void writeEvent(uint32_t Dst) {
    if (Dst == v::NoReg)
      return;
    for (size_t I = 0; I != P.Table.size(); ++I) {
      PlanTableEntry &D = P.Table[I];
      if (!D.Pending)
        continue;
      if ((!D.A.IsConst && D.A.R == Dst) || (!D.B.IsConst && D.B.R == Dst))
        materialize(I);
    }
    if (LatestDef *L = latest(Dst)) {
      PlanTableEntry &D = P.Table[L->Idx];
      if (D.Pending) {
        D.Pending = false;
        ++Open.DeadAssigns; // ++Stats.DeadAssignsEliminated
        ++Open.TableOps;    // charge(CM.SpecZcpTableOp)
      }
      eraseLatest(L);
    }
  }

  void memoryClobber() {
    for (size_t I = 0; I != P.Table.size(); ++I)
      if (P.Table[I].Pending && P.Table[I].Op == Opcode::Load)
        materialize(I);
  }

  void deferOrEmit(const SetupOp &Op, Opcode FormOp, ir::Type Ty, uint32_t Dst,
                   const PlanOperand &A, const PlanOperand &B, PlanRef Imm,
                   bool FromZcp) {
    writeEvent(Dst);
    if (Op.Deferrable) {
      ++Open.TableOps; // charge(CM.SpecZcpTableOp)
      PlanTableEntry D;
      D.Op = FormOp;
      D.Ty = Ty;
      D.Dst = Dst;
      D.A = stabilizeVal(A);
      D.B = stabilizeVal(B);
      D.Imm = stabilize(Imm);
      D.FromZcp = FromZcp;
      P.Table.push_back(D);
      // writeEvent above dropped any earlier definition of Dst.
      P.Latest.push_back({Dst, static_cast<uint32_t>(P.Table.size() - 1)});
      return;
    }
    force(A);
    force(B);
    emitResolvedSym(FormOp, Ty, Dst, A, B, Imm);
  }

  /// Plan-time mirror of DeferralEngine::emitDynamic.
  void simEmit(const SetupOp &Op) {
    openCopy();

    if (Op.Op == Opcode::Call || Op.Op == Opcode::CallExt) {
      std::vector<PlanOperand> Args;
      Args.reserve(Op.Args.size());
      for (const Operand &A : Op.Args)
        Args.push_back(resolve(A));
      memoryClobber();
      writeEvent(Op.Dst);
      for (size_t I = 0; I != Args.size(); ++I) {
        uint32_t Stage = GX.StageBase + static_cast<uint32_t>(I);
        ir::Type ArgTy = GX.RegTypes[Op.Args[I].R];
        force(Args[I]);
        emitResolvedSym(Opcode::Mov, ArgTy, Stage, Args[I], PlanOperand(),
                        PlanRef());
      }
      raw({Op.Op == Opcode::Call ? v::Op::Call : v::Op::CallExt,
           Op.Dst == ir::NoReg ? v::NoReg : Op.Dst, GX.StageBase,
           static_cast<uint32_t>(Args.size()), Op.Callee});
      return;
    }

    PlanOperand A = resolve(Op.A);
    PlanOperand B = resolve(Op.B);

    // A move that resolves to its own destination (copy propagation came
    // full circle) is a no-op: the register already holds the value.
    if (Op.Op == Opcode::Mov && !A.IsConst && A.R == Op.Dst)
      return;

    if (Op.Op == Opcode::Store) {
      memoryClobber();
      force(A);
      force(B);
      emitResolvedSym(Opcode::Store, ir::Type::I64, v::NoReg, A, B,
                      PlanRef::lit(Word::fromInt(Op.Imm)));
      return;
    }

    // Dynamic constant folding: propagation can turn both operands into
    // constants. The fold fails only for integer division by a
    // zero-valued constant — that test guards.
    if (ir::isEvaluableOp(Op.Op) && A.IsConst &&
        (runtime::isUnaryOpcode(Op.Op) || B.IsConst)) {
      bool Folds = true;
      if (Op.Op == Opcode::Div || Op.Op == Opcode::Rem)
        Folds = !assume(PlanBranch::EqBits, B.C, Word::fromInt(0));
      if (Folds) {
        ++Open.EvalOps; // charge(CM.SpecEvalOp)
        deferOrEmit(Op,
                    Op.Ty == ir::Type::F64 ? Opcode::ConstF : Opcode::ConstI,
                    Op.Ty, Op.Dst, PlanOperand(), PlanOperand(),
                    symEval(Op.Op, A.C, B.IsConst ? B.C : PlanRef()),
                    /*FromZcp=*/false);
        return;
      }
    }

    // Staged zero/copy propagation (section 2.2.7): a special value of
    // the single constant operand reduces the operation to a move or a
    // clear. The 0/1 tests guard.
    bool OneConst = A.IsConst != B.IsConst;
    if (Flags.ZeroCopyPropagation && OneConst) {
      ++Open.ZcpChecks; // charge(CM.SpecZcpTableOp)
      const PlanOperand &CS = A.IsConst ? A : B;
      const PlanOperand &DS = A.IsConst ? B : A;
      bool ConstOnRight = B.IsConst;
      bool IsFloat = Op.Ty == ir::Type::F64;
      Word One = IsFloat ? Word::fromFloat(1.0) : Word::fromInt(1);
      Word Zero = IsFloat ? Word::fromFloat(0.0) : Word::fromInt(0);
      bool RewriteToMove = false, RewriteToClear = false;
      switch (Op.Op) {
      case Opcode::Mul:
      case Opcode::FMul:
        RewriteToMove = assume(PlanBranch::EqBits, CS.C, One);
        RewriteToClear =
            !RewriteToMove && assume(PlanBranch::EqBits, CS.C, Zero);
        break;
      case Opcode::Add:
      case Opcode::FAdd:
        RewriteToMove = assume(PlanBranch::EqBits, CS.C, Zero);
        break;
      case Opcode::Sub:
      case Opcode::FSub:
        RewriteToMove = ConstOnRight && assume(PlanBranch::EqBits, CS.C, Zero);
        break;
      case Opcode::Div:
      case Opcode::FDiv:
        RewriteToMove = ConstOnRight && assume(PlanBranch::EqBits, CS.C, One);
        break;
      default:
        break;
      }
      if (RewriteToMove) {
        ++Open.ZcpApplied;
        deferOrEmit(Op, Opcode::Mov, Op.Ty, Op.Dst, DS, PlanOperand(),
                    PlanRef(), /*FromZcp=*/true);
        return;
      }
      if (RewriteToClear) {
        ++Open.ZcpApplied;
        deferOrEmit(Op, IsFloat ? Opcode::ConstF : Opcode::ConstI, Op.Ty,
                    Op.Dst, PlanOperand(), PlanOperand(), PlanRef::lit(Zero),
                    /*FromZcp=*/true);
        return;
      }
    }

    // Strength reduction (section 2.2.7): integer multiply/divide/
    // remainder by a power of two become shifts and masks. The
    // power-of-two test guards — but only where the legacy path inspects
    // its outcome (Mul either side, Div/Rem with the constant on the
    // right); elsewhere the check is charged and falls through.
    if (Flags.StrengthReduction && OneConst &&
        (Op.Op == Opcode::Mul || Op.Op == Opcode::Div ||
         Op.Op == Opcode::Rem)) {
      ++Open.SrChecks; // charge(CM.SpecStrengthCheck)
      const PlanOperand &CS = A.IsConst ? A : B;
      const PlanOperand &DS = A.IsConst ? B : A;
      bool ConstOnRight = B.IsConst;
      bool Relevant = Op.Op == Opcode::Mul || ConstOnRight;
      if (Relevant && assume(PlanBranch::Pow2Ge2, CS.C, Word())) {
        if (Op.Op == Opcode::Mul) {
          ++Open.StrengthReduced;
          deferOrEmit(Op, Opcode::Shl, Op.Ty, Op.Dst, DS,
                      PlanOperand::cst(log2Ref(CS.C)), PlanRef(), false);
          return;
        }
        // Exact shift sequence (C truncates toward zero, so negative
        // dividends need the bias fixup) — the same code an optimizing
        // static compiler emits for constant power-of-two divisors.
        ++Open.StrengthReduced;
        force(DS);
        writeEvent(Op.Dst);
        PlanRef K = log2Ref(CS.C);
        uint32_t X = DS.R;
        uint32_t S0 = GX.Scratch0;
        raw({v::Op::ShrI, S0, X, 0, 63});
        rawImm({v::Op::AndI, S0, S0}, CS.C, -1); // C - 1
        raw({v::Op::Add, S0, X, S0});
        if (Op.Op == Opcode::Div) {
          rawImm({v::Op::ShrI, Op.Dst, S0}, K, 0);
        } else {
          rawImm({v::Op::ShrI, S0, S0}, K, 0);
          rawImm({v::Op::ShlI, S0, S0}, K, 0);
          raw({v::Op::Sub, Op.Dst, X, S0});
        }
        return;
      }
    }

    deferOrEmit(Op, Op.Op, Op.Ty, Op.Dst, A, B,
                PlanRef::lit(Word::fromInt(Op.Imm)), /*FromZcp=*/false);
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

bool resolveEmitPlanEnabled(EmitPlanMode Mode) {
  if (Mode == EmitPlanMode::On)
    return true;
  if (Mode == EmitPlanMode::Off)
    return false;
  const char *Env = std::getenv("DYC_EMIT_PLAN");
  if (!Env)
    return true;
  if (!std::strcmp(Env, "off") || !std::strcmp(Env, "0") ||
      !std::strcmp(Env, "false"))
    return false;
  // "on"/"1"/"true" and unrecognized values resolve to the default: on.
  return true;
}

} // namespace cogen
} // namespace dyc
