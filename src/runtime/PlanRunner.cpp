//===- runtime/PlanRunner.cpp - Staged emit-plan executor --------------------------===//

#include "runtime/PlanRunner.h"

#include "ir/ConstEval.h"

namespace dyc {
namespace runtime {

void PlanRunner::runEvals(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                          std::vector<Word> &Vals) {
  const vm::Memory &Mem = M.memory();
  const uint32_t End = S.First + S.Count;
  for (uint32_t I = S.First; I != End; ++I) {
    const cogen::PlanEval &E = BP.Evals[I];
    switch (E.K) {
    case cogen::PlanEval::Const:
      Vals[E.Dst] = Word{static_cast<uint64_t>(E.Imm)};
      break;
    case cogen::PlanEval::Pure: {
      Word Out;
      Word BV = E.B == ir::NoReg ? Word() : Vals[E.B];
      if (!ir::evalPureOp(E.Op, Vals[E.A], BV, Out))
        fatal("static computation faulted at specialize time (division "
              "by a zero-valued run-time constant)");
      Vals[E.Dst] = Out;
      break;
    }
    case cogen::PlanEval::Load: {
      int64_t Addr = wrapAdd(Vals[E.A].asInt(), E.Imm);
      if (Addr < 0 || static_cast<uint64_t>(Addr) >= Mem.size())
        fatal("static load out of range at specialize time");
      Vals[E.Dst] = Mem[static_cast<size_t>(Addr)];
      break;
    }
    }
  }
  M.chargeDynComp(static_cast<uint64_t>(S.EvalOps) * CM.SpecEvalOp +
                  static_cast<uint64_t>(S.StaticLoads) * CM.SpecStaticLoad);
  R.Stats.StaticLoadsExecuted += S.StaticLoads;
}

void PlanRunner::runCopy(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                         const std::vector<Word> &Vals) {
  // Capture this step's derived values first: holes in the step's own
  // template (and guards / sync operands downstream) read them.
  const uint32_t ExprEnd = S.ExprFirst + S.ExprCount;
  for (uint32_t X = S.ExprFirst; X != ExprEnd; ++X) {
    const cogen::PlanExpr &E = BP.Exprs[X];
    if (E.K == cogen::PlanExpr::Log2) {
      ExprVals[X] = Word::fromInt(log2OfPow2(ref(E.A, Vals).asInt()));
      continue;
    }
    Word Out;
    // Never fails: Div/Rem-by-zero folds are guarded by a Branch step.
    if (!ir::evalPureOp(E.Op, ref(E.A, Vals), ref(E.B, Vals), Out))
      fatal("unguarded fold failure in a staged emit plan");
    ExprVals[X] = Out;
  }

  const size_t Pre = Buf.Code.size();
  Buf.Code.insert(Buf.Code.end(), BP.Template.begin() + S.First,
                  BP.Template.begin() + S.First + S.Count);
  const uint32_t HoleEnd = S.HoleFirst + S.HoleCount;
  for (uint32_t H = S.HoleFirst; H != HoleEnd; ++H) {
    const cogen::PlanHole &PH = BP.Holes[H];
    Buf.Code[Pre + (PH.InstrIdx - S.First)].Imm =
        static_cast<int64_t>(ref(PH.Ref, Vals).Bits) + PH.Add;
  }

  // Replay the walk's exact charge trail for the run as one accumulation,
  // and its stats arithmetically. ZcpChecks and TableOps both charge at
  // the SpecZcpTableOp rate. CodeCapHits: the legacy emitRaw counts a hit
  // for every instruction pushed at a position >= the cap.
  M.chargeDynComp(
      static_cast<uint64_t>(S.Emits) * CM.SpecEmit +
      static_cast<uint64_t>(S.EmitHoles) * CM.SpecEmitHole +
      static_cast<uint64_t>(S.EvalOps) * CM.SpecEvalOp +
      static_cast<uint64_t>(S.ZcpChecks + S.TableOps) * CM.SpecZcpTableOp +
      static_cast<uint64_t>(S.SrChecks) * CM.SpecStrengthCheck);
  R.Stats.InstructionsGenerated += S.Emits;
  R.Stats.ZcpApplied += S.ZcpApplied;
  R.Stats.StrengthReduced += S.StrengthReduced;
  R.Stats.DeadAssignsEliminated += S.DeadAssigns;
  R.Stats.MaterializedDeferred += S.Materialized;
  if (Pre + S.Emits > MaxInstrs)
    R.Stats.CodeCapHits += S.Emits - (Pre < MaxInstrs ? MaxInstrs - Pre : 0);
}

void PlanRunner::runSync(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                         const std::vector<Word> &Vals) {
  const uint32_t End = S.First + S.Count;
  for (uint32_t I = S.First; I != End; ++I) {
    const cogen::PlanTableEntry &Y = BP.Syncs[I];
    DeferralEngine::DeferredInstr DI;
    DI.Op = Y.Op;
    DI.Ty = Y.Ty;
    DI.Dst = Y.Dst;
    DI.A = Y.A.IsConst ? RVal::cst(ref(Y.A.C, Vals))
                       : RVal::reg(Y.A.R, Y.A.Dep);
    DI.B = Y.B.IsConst ? RVal::cst(ref(Y.B.C, Vals))
                       : RVal::reg(Y.B.R, Y.B.Dep);
    DI.Imm = static_cast<int64_t>(ref(Y.Imm, Vals).Bits);
    DI.FromZcp = Y.FromZcp;
    D.restore(DI);
  }
}

} // namespace runtime
} // namespace dyc
