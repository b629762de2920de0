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
///  * Branch — a guard on a specialize-time value the legacy decision
///    tree forks on (a zero/copy-propagation 0/1 test, a power-of-two
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
///    — behaves bit-identically to the legacy walk.
///  * Generic — one SetupOp executed through the unmodified legacy path
///    (memoized static calls always; dynamic instructions only past the
///    block's guard budget).
///  * End — terminates the current path of the step program.
///
/// The builder is a plan-time *symbolic execution* of the DeferralEngine:
/// it tracks the deferral table (pending entries, copy/constant
/// propagation, dead-assignment kills, forced materializations) with
/// values abstracted to PlanRefs — plan-time literals, static-register
/// reads, or derived expressions — and mirrors every chargeDynComp call
/// and every RegionStats bump the legacy engine would make, replayed as
/// per-step counts. That is what keeps every simulated counter
/// (DynCompCycles included) and every emitted chain bit-identical plan
/// on/off.
///
/// The plan also carries the flattened static-key register list of every
/// context (the memoization key composition the driver otherwise
/// re-derives through a std::function bit-set walk on every placement
/// and every context edge) — the "memo checks hoisted to run
/// boundaries" piece.
///
/// Plans are staged on demand, so their one-time cost is paid only for
/// what specialization reaches. RegionExecutionCore creates a region's
/// plan on its first specialization with only the key lists (every
/// context needs one, placed or not: edges compose keys of their
/// targets); the UnrollDriver builds a context's block program up to its
/// first guard the first time it places that context, and each guard arm
/// the first time a placement takes it. A plan depends only on the
/// immutable GenExtFunction and the core's fixed OptFlags, so it survives
/// chain eviction and CodeObject::Version churn; its storage is recycled
/// through the region's RecyclingPool.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_COGEN_EMITPLAN_H
#define DYC_COGEN_EMITPLAN_H

#include "bta/OptFlags.h"
#include "cogen/GenExt.h"

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
/// legacy walk would have read them.
struct PlanExpr {
  enum Kind : uint8_t {
    Pure, ///< evalPureOp(Op, A, B) — guarded against Div/Rem-by-zero
    Log2, ///< log2OfPow2(A.asInt()) — guarded by a Pow2Ge2 branch
  } K = Pure;
  ir::Opcode Op = ir::Opcode::Mov;
  PlanRef A, B;
};

/// One patch site of a Copy template: the Imm field of the instruction at
/// template position \p InstrIdx becomes bits(\p Ref) + \p Add. Every
/// emit-time hole the legacy path fills (demoted-constant
/// materializations, immediate-form packing, absolute-address folding,
/// folded pure ops, strength-reduction shift constants) reduces to this.
struct PlanHole {
  uint32_t InstrIdx = 0;
  int64_t Add = 0;
  PlanRef Ref;
};

/// One guard: picks the sub-program matching the specialize-time value,
/// mirroring a value test of the legacy decision tree.
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

/// A symbolic RVal: a register (possibly linked to a pending deferral-table
/// entry by Dep) or a constant whose value is a ref. Refs stored into the
/// table are always sync-stable: literals or captured expressions.
struct PlanOperand {
  bool IsConst = false;
  uint32_t R = vm::NoReg;
  int32_t Dep = -1;
  PlanRef C;

  static PlanOperand reg(uint32_t R, int32_t Dep = -1) {
    PlanOperand V;
    V.R = R;
    V.Dep = Dep;
    return V;
  }
  static PlanOperand cst(PlanRef C) {
    PlanOperand V;
    V.IsConst = true;
    V.C = C;
    return V;
  }
};

/// The plan-time image of one DeferredInstr: an entry of the builder's
/// symbolic deferral table, and of a Sync step's reconstruction list. A
/// Sync list holds the still-pending entries of the symbolic table, in
/// legacy order, with producer links (Dep) remapped to the compacted
/// indices (links to entries that already died are cleared —
/// forceOperand skips them either way).
struct PlanTableEntry {
  ir::Opcode Op = ir::Opcode::Mov;
  ir::Type Ty = ir::Type::I64;
  uint32_t Dst = vm::NoReg;
  PlanOperand A, B;
  PlanRef Imm;
  bool FromZcp = false;
  bool Pending = true; ///< builder only: false once emitted or killed
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

/// The builder's symbolic state along one path of a block program. The
/// maps are flat vectors scanned linearly: Latest holds at most the
/// path's pending entries and Assumed at most one test per guard, so a
/// scan beats a tree and a snapshot is a plain copy.
struct PlanPath {
  /// One register -> latest-table-entry link.
  struct LatestDef {
    uint32_t Reg = 0;
    uint32_t Idx = 0;
  };
  /// One value-test outcome the path has committed to.
  struct Assumption {
    PlanPredKey K;
    bool Holds = false;
  };
  std::vector<PlanTableEntry> Table;
  std::vector<LatestDef> Latest; ///< unordered, one entry per register
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
  /// cycles are computed at run time). EvalRun uses EvalOps/StaticLoads;
  /// Copy uses the rest. TableOps replays the deferral engine's
  /// SpecZcpTableOp charges (inserts, resolve hops, dead-kills);
  /// ZcpChecks the zero/copy candidate tests (same rate, kept separate
  /// for readability); SrChecks the strength-reduction tests.
  uint32_t EvalOps = 0;
  uint32_t StaticLoads = 0;
  uint32_t Emits = 0;
  uint32_t EmitHoles = 0;
  uint32_t ZcpChecks = 0;
  uint32_t SrChecks = 0;
  uint32_t TableOps = 0;
  /// Aggregated RegionStats replay for the compiled deferral activity.
  uint32_t ZcpApplied = 0;
  uint32_t StrengthReduced = 0;
  uint32_t DeadAssigns = 0;
  uint32_t Materialized = 0;
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
  std::vector<PlanTableEntry> Syncs;
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

/// Resolves an EmitPlanMode against the DYC_EMIT_PLAN environment
/// variable ("on"/"1"/"true" / "off"/"0"/"false"; unknown values are
/// ignored). Default is on. An explicit flag beats the environment.
bool resolveEmitPlanEnabled(EmitPlanMode Mode);

} // namespace cogen
} // namespace dyc

#endif // DYC_COGEN_EMITPLAN_H
