//===- runtime/PlanRunner.h - Staged emit-plan executor ---------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one block's linear emit program (cogen/EmitPlan.h) against the
/// live specializer state. The step kinds map to small executors driven by
/// a step PC (Branch jumps, End stops, everything else falls through):
///
///  * EvalRun — a tight loop over the pre-decoded PlanEval array, with the
///    run's cycle charges accumulated once at the run boundary (the cost
///    model is a pure accumulator, so batching is total-preserving).
///  * Copy — evaluate the step's captured expressions into the expression
///    scratch, then one bulk append of the pre-encoded template into the
///    chain buffer, then the hole list patches immediate fields in place.
///    The appended instructions are new (never rewritten), so — exactly
///    like the Concrete::emit appends they replace — no CodeObject::Version
///    bump happens; the charge trail and stats (InstructionsGenerated,
///    CodeCapHits, the deferral engine's ZcpApplied / StrengthReduced /
///    DeadAssignsEliminated / MaterializedDeferred) are replayed
///    arithmetically from the step's counts.
///  * Branch — evaluate the guard's predicate on the live value and jump
///    to the matching sub-program, building it first if no earlier run
///    took that arm.
///  * Sync — rebuild the live DeferralEngine's table from the plan's
///    reconstruction list, so Generic suffixes and the driver's
///    terminator handling observe exactly the reference walk's state.
///  * Generic — handed back to the caller, which runs
///    UnrollDriver::execSetup (the concrete domain) for that SetupOp index.
///
/// The runner is deliberately decoupled from the UnrollDriver: it sees
/// only the VM (charging + static-load memory), the region state (stats),
/// the chain buffer, and the deferral engine (for Sync). Generic steps
/// and unbuilt guard arms reach the driver through the callbacks passed
/// to runBlock, so re-entrant specialization (memoized static calls that
/// dispatch again) works unchanged under the plan path.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_PLANRUNNER_H
#define DYC_RUNTIME_PLANRUNNER_H

#include "cogen/EmitPlan.h"
#include "runtime/Deferral.h"
#include "runtime/RegionExec.h"

namespace dyc {
namespace runtime {

class PlanRunner {
public:
  PlanRunner(vm::VM &M, RegionState &R, vm::CodeObject &Buf, size_t MaxInstrs,
             DeferralEngine &D)
      : M(M), R(R), Buf(Buf), MaxInstrs(MaxInstrs), D(D) {
    for (size_t K = 0; K != NumCharges; ++K)
      Rates[K] = cyclesOf(M.costModel(), static_cast<Charge>(K));
  }

  /// Executes \p BP from its first step until End. \p Generic is called
  /// with the GenBlock::Ops index of each Generic step and must execute it
  /// at specialize time. \p BuildArm is called with a guard's
  /// Branches index and outcome when the run takes an arm that is still
  /// Unbuilt, and must build it (cogen::buildBranchArm).
  ///
  /// Both callbacks can grow \p BP's vectors: BuildArm directly, and a
  /// Generic static call through a nested same-region run that builds an
  /// arm of this very block. So the loop addresses steps and guards by
  /// index and never holds a reference across either call, and it grows
  /// the expression scratch to the expressions that exist at every Branch
  /// (an arm's expressions are only ever read past its guard).
  template <typename GenericFn, typename BuildArmFn>
  void runBlock(const cogen::BlockPlan &BP, std::vector<Word> &Vals,
                GenericFn &&Generic, BuildArmFn &&BuildArm) {
    ExprVals.assign(BP.Exprs.size(), Word());
    uint32_t PC = 0;
    while (true) {
      const cogen::PlanStep &S = BP.Steps[PC];
      switch (S.K) {
      case cogen::PlanStep::EvalRun:
        runEvals(BP, S, Vals);
        ++PC;
        break;
      case cogen::PlanStep::Copy:
        runCopy(BP, S, Vals);
        ++PC;
        break;
      case cogen::PlanStep::Generic:
        Generic(S.First); // S may dangle after this call
        ++PC;
        break;
      case cogen::PlanStep::Branch: {
        const uint32_t BI = S.First;
        const bool Taken = predicate(BP.Branches[BI], Vals);
        if ((Taken ? BP.Branches[BI].True : BP.Branches[BI].False) ==
            cogen::PlanBranch::Unbuilt)
          BuildArm(BI, Taken); // S may dangle after this call
        PC = Taken ? BP.Branches[BI].True : BP.Branches[BI].False;
        ExprVals.resize(BP.Exprs.size());
        break;
      }
      case cogen::PlanStep::Sync:
        runSync(BP, S, Vals);
        ++PC;
        break;
      case cogen::PlanStep::End:
        return;
      }
    }
  }

private:
  Word ref(const cogen::PlanRef &R, const std::vector<Word> &Vals) const {
    switch (R.K) {
    case cogen::PlanRef::Lit:
      return R.L;
    case cogen::PlanRef::Static:
      return Vals[R.Idx];
    case cogen::PlanRef::Expr:
      return ExprVals[R.Idx];
    }
    return Word();
  }

  bool predicate(const cogen::PlanBranch &Br,
                 const std::vector<Word> &Vals) const {
    Word V = ref(Br.A, Vals);
    return Br.P == cogen::PlanBranch::EqBits ? Concrete::eqBits(V, Br.Cmp)
                                             : Concrete::pow2Ge2(V);
  }

  RVal concrete(const Resolved<cogen::PlanRef> &O,
                const std::vector<Word> &Vals) const {
    return O.IsConst ? RVal::cst(ref(O.C, Vals)) : RVal::reg(O.R, O.Dep);
  }

  /// Charges the step's counts at this VM's rates and adds its stats.
  void replay(const cogen::PlanStep &S);
  void runEvals(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                std::vector<Word> &Vals);
  void runCopy(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
               const std::vector<Word> &Vals);
  void runSync(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
               const std::vector<Word> &Vals);

  vm::VM &M;
  uint64_t Rates[NumCharges]; ///< cycles per count, by Charge
  RegionState &R;
  vm::CodeObject &Buf;
  size_t MaxInstrs;
  DeferralEngine &D;
  /// Evaluated PlanExpr values, indexed by expression id; sized per
  /// runBlock and grown at every Branch. Expressions persist for the
  /// whole block run — a deferred value captured early can be consumed by
  /// a hole, a guard, or a Sync operand many steps later.
  std::vector<Word> ExprVals;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_PLANRUNNER_H
