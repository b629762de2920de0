//===- runtime/PlanRunner.cpp - Staged emit-plan executor --------------------------===//

#include "runtime/PlanRunner.h"

#include "ir/ConstEval.h"

namespace dyc {
namespace runtime {

void PlanRunner::replay(const cogen::PlanStep &S) {
  uint64_t Cycles = 0;
  for (size_t K = 0; K != NumCharges; ++K)
    Cycles += static_cast<uint64_t>(S.Charges[K]) * Rates[K];
  M.chargeDynComp(Cycles);
  for (size_t K = 0; K != NumStats; ++K)
    statOf(R.Stats, static_cast<Stat>(K)) += S.Stats[K];
}

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
  replay(S);
  R.Stats.StaticLoadsExecuted += S.count(Charge::StaticLoad);
}

void PlanRunner::runCopy(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                         const std::vector<Word> &Vals) {
  // Capture this step's derived values first: holes in the step's own
  // template (and guards / sync operands downstream) read them.
  const uint32_t ExprEnd = S.ExprFirst + S.ExprCount;
  for (uint32_t X = S.ExprFirst; X != ExprEnd; ++X) {
    const cogen::PlanExpr &E = BP.Exprs[X];
    if (E.K == cogen::PlanExpr::Log2) {
      ExprVals[X] = Concrete::log2(ref(E.A, Vals));
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
        wrapAdd(ref(PH.Ref, Vals).asInt(), PH.Add);
  }

  // Replay the walk's exact charge trail for the run as one accumulation,
  // and its stats arithmetically. CodeCapHits: Concrete::emit counts a hit
  // for every instruction pushed at a position >= the cap.
  replay(S);
  const uint32_t Emits = S.count(Charge::Emit);
  R.Stats.InstructionsGenerated += Emits;
  if (Pre + Emits > MaxInstrs)
    R.Stats.CodeCapHits += Emits - (Pre < MaxInstrs ? MaxInstrs - Pre : 0);
}

void PlanRunner::runSync(const cogen::BlockPlan &BP, const cogen::PlanStep &S,
                         const std::vector<Word> &Vals) {
  const uint32_t End = S.First + S.Count;
  for (uint32_t I = S.First; I != End; ++I) {
    const DeferredEntry<cogen::PlanRef> &Y = BP.Syncs[I];
    DeferralEngine::Entry E;
    E.Op = Y.Op;
    E.Ty = Y.Ty;
    E.Dst = Y.Dst;
    E.A = concrete(Y.A, Vals);
    E.B = concrete(Y.B, Vals);
    E.Imm = ref(Y.Imm, Vals);
    D.restore(E);
  }
}

} // namespace runtime
} // namespace dyc
