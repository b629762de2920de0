//===- cogen/EmitPlan.h - Staged emit plans ---------------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Staged emit plans: a one-time, per-region compilation of the
/// generating extension's SetupOp templates into a *linear emit program*
/// the specializer executes instead of re-walking the templates on every
/// specializeInto call (the paper's central staging claim — emitting a
/// specialized instruction should cost tens of cycles, not an
/// interpretive walk).
///
/// A BlockPlan compiles one GenBlock into a step program:
///
///  * EvalRun — a maximal run of static set-up operations (EvalConst /
///    Eval / EvalLoad) pre-decoded into a compact PlanEval array and
///    executed by a tight loop with aggregated cycle charging.
///  * Copy — a maximal run of pre-encoded dynamic template instructions:
///    execution is one bulk append into the chain buffer plus a compact
///    patch-site (hole) list whose entries compute immediate fields from
///    the run's static values (directly or through derived-value
///    expressions).
///  * Branch — a guard on a specialize-time value the emit semantics
///    test (a zero/copy-propagation 0/1 test, a power-of-two
///    strength-reduction test, a divide-by-zero fold test). The builder
///    emits the guard with both arms unbuilt and keeps the path's
///    symbolic state as the guard's seed; the first specialization that
///    takes an arm compiles it from the seed (buildBranchArm), and every
///    later one jumps straight to it. Value-dependent rewrites no longer
///    force the interpretive path, and outcomes no key takes cost nothing.
///  * Sync — replays the symbolic deferral-table state the compiled
///    steps imply into the live DeferralEngine, so everything after the
///    compiled portion — Generic suffixes and the driver's terminator
///    handling (return/condition resolution, dropAllPending accounting)
///    — sees exactly the table the reference walk would have left.
///  * Generic — one SetupOp executed at specialize time in the concrete
///    domain (memoized static calls always; dynamic instructions only past
///    the block's guard budget).
///  * End — terminates the current path of the step program.
///
/// The builder runs the one statement of the emit semantics — the
/// DeferralEngineT template of runtime/Deferral.h — in the Symbolic value
/// domain: values are PlanRefs (plan-time literals, static-register reads,
/// or derived expressions), value tests fork the program through guards,
/// immediates become holes, and every charge and RegionStats bump becomes
/// a per-step count the runner replays. That is what keeps every simulated
/// counter (DynCompCycles included) and every emitted chain bit-identical
/// to the reference walk, which runs the same template concretely.
///
/// The plan also carries the flattened static-key register list of every
/// context, from which the driver composes every memoization key (on
/// every placement and every context edge, under the reference walk too)
/// — the "memo checks hoisted to run boundaries" piece.
///
/// Plans are staged on demand, so their one-time cost is paid only for
/// what specialization reaches. RegionExecutionCore creates a region's
/// plan on its first specialization with only the key lists (every
/// context needs one, placed or not: edges compose keys of their
/// targets); the UnrollDriver builds a context's block program up to its
/// first guard the first time it places that context, and each guard arm
/// the first time a placement takes it. A plan depends only on the
/// immutable GenExtFunction and the core's fixed OptFlags, so it survives
/// chain eviction and CodeObject::Version churn and lives as long as its
/// region.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_COGEN_EMITPLAN_H
#define DYC_COGEN_EMITPLAN_H

#include "bta/OptFlags.h"
#include "cogen/GenExt.h"
#include "runtime/Emitter.h"

namespace dyc {
namespace cogen {

/// A plan-time reference to a specialize-time 64-bit value.
struct PlanRef {
  enum Kind : uint8_t {
    Lit,    ///< a plan-time literal (L)
    Static, ///< Vals[Idx], read when the owning step executes
    Expr,   ///< ExprVals[Idx], computed by an earlier (or the owning) step
  } K = Lit;
  uint32_t Idx = 0;
  Word L;

  static PlanRef lit(Word W) { return {Lit, 0, W}; }
  static PlanRef stat(uint32_t Reg) { return {Static, Reg, Word()}; }
  static PlanRef expr(uint32_t Id) { return {Expr, Id, Word()}; }
};

/// One derived-value computation. Each expression belongs to exactly one
/// Copy step (its capture point) and is evaluated into the run's
/// expression scratch when that step executes — capturing static values
/// *before* later set-up evaluation can overwrite them, exactly when the
/// concrete domain would have read them.
struct PlanExpr {
  enum Kind : uint8_t {
    Pure, ///< evalPureOp(Op, A, B) — guarded against the op's fault
    Log2, ///< log2OfPow2(A.asInt()) — guarded by a Pow2Ge2 branch
  } K = Pure;
  ir::Opcode Op = ir::Opcode::Mov;
  PlanRef A, B;
};

/// One patch site of a Copy template: the Imm field of the instruction at
/// template position \p InstrIdx becomes wrapAdd(\p Ref, \p Add). Every
/// emit-time hole the concrete domain fills (demoted-constant
/// materializations, immediate-form packing, absolute-address folding,
/// folded pure ops, strength-reduction shift constants) reduces to this.
struct PlanHole {
  uint32_t InstrIdx = 0;
  int64_t Add = 0;
  PlanRef Ref;
};

/// One guard: picks the sub-program matching the specialize-time value of
/// one value test of the emit semantics.
struct PlanBranch {
  /// Arm target of an outcome no specialization has taken yet.
  static constexpr uint32_t Unbuilt = ~0u;

  enum Pred : uint8_t {
    EqBits,  ///< bits(A) == bits(Cmp) (ZCP 0/1 tests, div-by-zero folds)
    Pow2Ge2, ///< isPowerOf2(A.asInt()) && A.asInt() >= 2 (SR tests)
  } P = EqBits;
  PlanRef A;
  Word Cmp;
  uint32_t True = Unbuilt;  ///< step index if the predicate holds
  uint32_t False = Unbuilt; ///< step index otherwise
};

/// One pre-decoded static set-up operation of an EvalRun step.
struct PlanEval {
  enum Kind : uint8_t {
    Const, ///< Vals[Dst] <- Imm
    Pure,  ///< Vals[Dst] <- Op(Vals[A], Vals[B])
    Load,  ///< Vals[Dst] <- Mem[Vals[A] + Imm]
  } K = Const;
  ir::Opcode Op = ir::Opcode::Mov;
  uint32_t Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0; ///< vm::NoReg when the op is unary
  int64_t Imm = 0;
};

/// Identity of one value test, for assumption memoization along a path.
/// Literal refs never reach here (they decide immediately).
struct PlanPredKey {
  uint8_t P = 0;
  uint8_t RefK = 0;
  uint32_t RefIdx = 0;
  uint64_t Cmp = 0;

  bool operator==(const PlanPredKey &O) const {
    return P == O.P && RefK == O.RefK && RefIdx == O.RefIdx && Cmp == O.Cmp;
  }
};

/// The builder's symbolic state along one path of a block program: the
/// deferral table, with values abstracted to PlanRefs, and the value-test
/// outcomes the path has committed to (at most one per guard, so a flat
/// vector scanned linearly).
struct PlanPath {
  /// One value-test outcome the path has committed to.
  struct Assumption {
    PlanPredKey K;
    bool Holds = false;
  };
  runtime::DeferralTable<PlanRef> Table;
  std::vector<Assumption> Assumed;
};

/// Everything buildBranchArm needs to compile one arm of a guard: the
/// path's state just before the op whose value test the guard makes, and
/// that op's GenBlock index. Freed once both arms exist.
struct PlanArmSeed {
  PlanPath Path;
  uint32_t OpIdx = 0;
};

/// One step of a block's emit program. Execution is PC-driven: most steps
/// fall through to the next index, Branch jumps, End stops.
struct PlanStep {
  enum Kind : uint8_t { EvalRun, Copy, Generic, Branch, Sync, End } K = End;
  /// EvalRun: [First, First+Count) into BlockPlan::Evals.
  /// Copy: [First, First+Count) into BlockPlan::Template.
  /// Generic: First = index into GenBlock::Ops (Count unused).
  /// Branch: First = index into BlockPlan::Branches.
  /// Sync: [First, First+Count) into BlockPlan::Syncs.
  uint32_t First = 0;
  uint32_t Count = 0;
  /// Copy: [HoleFirst, HoleFirst+HoleCount) into BlockPlan::Holes.
  uint32_t HoleFirst = 0;
  uint32_t HoleCount = 0;
  /// Copy: [ExprFirst, ExprFirst+ExprCount) into BlockPlan::Exprs,
  /// evaluated into the expression scratch before the template copy.
  uint32_t ExprFirst = 0;
  uint32_t ExprCount = 0;
  /// Aggregated charge replay, as *counts* (the cost model is per-VM, so
  /// cycles are computed at run time), one per cost-model rate. EvalRun
  /// counts EvalOp and StaticLoad; Copy counts every rate but StaticLoad.
  uint32_t Charges[runtime::NumCharges] = {};
  /// Aggregated RegionStats replay for the compiled deferral activity.
  uint32_t Stats[runtime::NumStats] = {};

  uint32_t &count(runtime::Charge K) { return Charges[size_t(K)]; }
  uint32_t count(runtime::Charge K) const { return Charges[size_t(K)]; }
  uint32_t &count(runtime::Stat K) { return Stats[size_t(K)]; }
};

/// The emit program for one GenBlock (context). Steps is empty until the
/// block is built. Every path of a built program ends in an End step or
/// reaches a Branch arm that is still Unbuilt; building an arm appends
/// its steps (and everything they index) to the arrays below, so indices
/// already handed out never move.
struct BlockPlan {
  std::vector<PlanStep> Steps;
  std::vector<PlanEval> Evals;
  /// Pre-encoded instruction templates for the block's Copy runs, holes
  /// unfilled (their Imm fields are 0 unless the value was a plan-time
  /// literal, which is baked directly).
  std::vector<vm::Instr> Template;
  std::vector<PlanHole> Holes;
  std::vector<PlanExpr> Exprs;
  std::vector<runtime::DeferredEntry<PlanRef>> Syncs;
  std::vector<PlanBranch> Branches;
  /// Parallel to Branches: the seed of each guard with an unbuilt arm
  /// (empty once both arms exist).
  std::vector<PlanArmSeed> Seeds;
  /// This context's StaticIn registers in ascending (bit-set) order: the
  /// flattened memo-key composition list used for the context's own
  /// placements and for every edge that targets it. Set when the plan is
  /// created, before the block is built.
  std::vector<uint32_t> KeyRegs;

  bool built() const { return !Steps.empty(); }
};

/// The staged emit plan for one region.
struct EmitPlan {
  /// Index == context id. Sized once, by createEmitPlan, so building one
  /// block never moves another: a nested re-entrant specialization may
  /// build a block while an outer run is executing a different one, or an
  /// arm of the very block the outer run is executing.
  std::vector<BlockPlan> Blocks;
};

/// Creates \p GX's plan: every context's KeyRegs, no block programs.
/// Returns the bytes it allocated (the plan, its block headers, and the
/// key lists) — the PlanBytes counter's contribution.
uint64_t createEmitPlan(const GenExtFunction &GX, EmitPlan &Plan);

/// Builds the block program of context \p Ctx into \p BP (created by
/// createEmitPlan, not yet built) under \p Flags, up to the first guard
/// on its path. Returns the bytes the program occupies (templates, holes,
/// eval streams, expressions, sync tables, guards, arm seeds, steps).
/// Pure function of its inputs: no VM, no values, no charges — plan
/// building is host work and must not touch simulated counters.
uint64_t buildBlockPlan(const GenExtFunction &GX, const OptFlags &Flags,
                        uint32_t Ctx, BlockPlan &BP);

/// Builds the \p Taken arm of guard \p Branch of \p BP (the block program
/// of context \p Ctx, built under the same \p Flags) from the guard's
/// seed, up to the next guard on the arm, and points the guard at it.
/// Frees the seed once both arms exist. Appends only, so a run executing
/// \p BP stays valid if it addresses steps by index. Returns the bytes
/// appended, seeds included. Pure, like buildBlockPlan.
uint64_t buildBranchArm(const GenExtFunction &GX, const OptFlags &Flags,
                        uint32_t Ctx, BlockPlan &BP, uint32_t Branch,
                        bool Taken);

} // namespace cogen
} // namespace dyc

#endif // DYC_COGEN_EMITPLAN_H
