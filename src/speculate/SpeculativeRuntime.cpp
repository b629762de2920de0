//===- speculate/SpeculativeRuntime.cpp ----------------------------------------------===//

#include "speculate/SpeculativeRuntime.h"

#include "cogen/Lowering.h"

#include <algorithm>

namespace dyc {
namespace speculate {

ir::Module stripAnnotations(const ir::Module &M) {
  ir::Module Out;
  for (size_t E = 0; E != M.numExternals(); ++E)
    Out.declareExternal(M.external(static_cast<int>(E)));
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    ir::Function F = M.function(static_cast<int>(I));
    for (ir::BasicBlock &BB : F.Blocks)
      BB.Instrs.erase(std::remove_if(BB.Instrs.begin(), BB.Instrs.end(),
                                     [](const ir::Instruction &In) {
                                       return In.isAnnotation();
                                     }),
                      BB.Instrs.end());
    Out.addFunction(std::move(F));
  }
  return Out;
}

SpeculativeRuntime::SpeculativeRuntime(const ir::Module &M, vm::Program &Prog,
                                       const OptFlags &Flags,
                                       const SpeculationPolicy &Policy,
                                       runtime::ChainBudget Budget)
    : SpecM(stripAnnotations(M)), Flags(Flags), Policy(Policy) {
  cogen::bindExternals(SpecM, Prog);
  std::vector<bta::RegionInfo> Empty(SpecM.numFunctions());
  std::vector<int> NoOrd(SpecM.numFunctions(), -1);
  Lowered =
      cogen::lowerModule(SpecM, Prog, /*WithRegions=*/false, Empty, NoOrd);
  Inner = std::make_unique<runtime::DycRuntime>(SpecM, Prog, this->Flags,
                                                Budget);
  Controller = std::make_unique<PromotionController>(
      SpecM, Prog, *Inner, this->Flags, this->Policy, Prof);
  PromotionCount.assign(SpecM.numFunctions(), 0);
}

void SpeculativeRuntime::arm(vm::VM &Machine) {
  // Synthesized twins specialize through the inner runtime's core like any
  // region, so the armed machine joins the core's shared translations even
  // when speculation itself is disabled.
  Inner->core().attachVM(Machine);
  if (!Policy.Enabled)
    return;
  for (size_t I = 0; I != SpecM.numFunctions(); ++I)
    if (SpecM.function(static_cast<int>(I)).NumParams > 0)
      Machine.setCallGuard(static_cast<uint32_t>(I), true);
}

vm::RuntimeHook::Target
SpeculativeRuntime::dispatch(vm::VM &M, int64_t PointId,
                             std::vector<Word> &Regs) {
  Busy = true;
  Target T = Inner->dispatch(M, PointId, Regs);
  Busy = false;
  return T;
}

uint32_t SpeculativeRuntime::onGuardedCall(vm::VM &M, uint32_t Callee,
                                           const Word *Args,
                                           uint32_t NArgs) {
  // Specialize-time static calls re-enter here while the inner runtime is
  // mid-dispatch (its Fronts vector may be mid-mutation) — pass through.
  if (Busy)
    return Callee;
  const vm::CostModel &CM = M.costModel();
  ++Stats.CallsObserved;

  GuardSite *Site = Guards.find(Callee);
  if (!Site) {
    // Sample only while unguarded: once a site guards the call, the
    // guard comparison itself is the probe (failures feed the profile
    // through noteGuardFailure), so steady-state hits pay no sampling.
    M.chargeExec(CM.ProfileSample);
    Prof.recordCall(Callee, Args, NArgs);
    if (Prof.calls(Callee) < Policy.HotCalls)
      return Callee;

    // Hot and unguarded: run the cost-benefit model. The trial BTAs are
    // real work the run-time did either way, so the synthesis charge
    // lands on promote *and* decline (the paper's break-even framing).
    Busy = true;
    PromotionController::Decision D = Controller->attempt(Callee);
    Busy = false;
    M.chargeDynComp(CM.SpecSynthBase +
                    CM.SpecSynthPerInstr * D.AnalyzedInstrs);
    if (!D.Promoted) {
      ++Stats.PromotionsDeclined;
      // Nothing about this function will change the verdict (profiles
      // only accumulate); stop paying the sampling cost forever.
      M.setCallGuard(Callee, false);
      return Callee;
    }
    ++Stats.Promotions;
    ++PromotionCount[Callee];
    GuardSite S;
    S.Func = Callee;
    S.Twin = D.TwinIdx;
    S.Ordinal = D.Ordinal;
    S.Params = std::move(D.Params);
    S.Values = std::move(D.Values);
    S.ParamFailures.assign(S.Params.size(), 0);
    Site = &Guards.install(std::move(S));
  }

  M.chargeExec(CM.SpecGuardBase +
               CM.SpecGuardPerWord *
                   static_cast<uint64_t>(Site->Params.size()));
  ++Stats.GuardChecks;
  bool Pass = true;
  for (size_t I = 0; I != Site->Params.size(); ++I) {
    uint32_t P = Site->Params[I];
    if (P < NArgs && Args[P].Bits == Site->Values[I].Bits)
      continue;
    Pass = false;
    ++Site->ParamFailures[I];
    if (P < NArgs)
      Prof.noteGuardFailure(Site->Func, P, Args[P]);
  }
  if (Pass) {
    ++Stats.GuardHits;
    ++Site->Hits;
    return Site->Twin;
  }
  ++Stats.GuardFailures;
  ++Site->Failures;
  if (Site->Failures >= Policy.DemoteFailures)
    demote(M, *Site); // invalidates Site
  return Callee;
}

void SpeculativeRuntime::demote(vm::VM &M, GuardSite &Site) {
  ++Stats.Demotions;

  // Retire the parameters that thrashed worst; survivors stay eligible
  // so a re-promotion can speculate on a narrower invariant.
  uint64_t MaxFail = 0;
  for (uint64_t F : Site.ParamFailures)
    MaxFail = std::max(MaxFail, F);
  if (MaxFail > 0)
    for (size_t I = 0; I != Site.Params.size(); ++I)
      if (Site.ParamFailures[I] == MaxFail) {
        Prof.blacklist(Site.Func, Site.Params[I]);
        ++Stats.ParamsBlacklisted;
      }

  // Fresh statistics: the function must re-establish hotness and
  // dominance under the new phase before the controller reconsiders it.
  Prof.resetFunction(Site.Func);

  // Release the twin's published chains and reclaim what no executor is
  // still inside; stragglers go at the next collectChains safe point.
  Inner->releaseRegion(M, Site.Ordinal);
  Inner->core().collectChains();

  uint32_t Func = Site.Func;
  if (PromotionCount[Func] >= Policy.MaxPromotions)
    M.setCallGuard(Func, false); // oscillation backstop: generic forever
  Guards.remove(Func);
}

} // namespace speculate
} // namespace dyc
