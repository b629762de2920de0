//===- core/DycContext.cpp ----------------------------------------------------------===//

#include "core/DycContext.h"

#include "frontend/Lower.h"
#include "opt/Passes.h"

namespace dyc {
namespace core {

int Executable::regionOrdinalOf(const std::string &Name) const {
  int Idx = findFunction(Name);
  if (Idx < 0 || static_cast<size_t>(Idx) >= AnnotatedOrdinal.size())
    return -1;
  return AnnotatedOrdinal[static_cast<size_t>(Idx)];
}

bool DycContext::compile(const std::string &Source,
                         std::vector<std::string> &Errors) {
  if (!frontend::compileMiniC(Source, M, Errors) ||
      !cogen::checkExternals(M, Errors))
    return false;
  // Normalize before optimizing so the static and dynamic compiles share
  // one CFG in which every make_static heads a block.
  for (size_t I = 0; I != M.numFunctions(); ++I)
    bta::normalizeAnnotations(M.function(static_cast<int>(I)));
  opt::runStaticOptimizations(M);
  std::string Err = ir::verifyModule(M);
  if (!Err.empty()) {
    Errors.push_back("post-optimization verification failed: " + Err);
    return false;
  }
  return true;
}

std::vector<bta::RegionInfo>
DycContext::analyze(const OptFlags &Flags) const {
  return bta::analyzeModule(M, Flags);
}

std::unique_ptr<server::SpecServer>
DycContext::buildServer(const OptFlags &Flags,
                        server::ServerConfig Cfg) const {
  return std::make_unique<server::SpecServer>(M, Flags, std::move(Cfg));
}

std::unique_ptr<server::SpecServer>
DycContext::buildTiered(const OptFlags &Flags,
                        server::ServerConfig Cfg) const {
  OptFlags TF = Flags;
  TF.Tier.Enabled = true;
  Cfg.OnMiss = server::MissPolicy::Fallback;
  return std::make_unique<server::SpecServer>(M, TF, std::move(Cfg));
}

std::unique_ptr<server::SpecServer>
DycContext::buildMultiTenant(const OptFlags &Flags,
                             server::ServerConfig Cfg) const {
  OptFlags MTF = Flags;
  MTF.Tier.Enabled = false; // tiering does not compose with multi-tenancy
  return std::make_unique<server::SpecServer>(M, MTF, std::move(Cfg));
}

std::unique_ptr<Executable>
DycContext::buildStatic(const vm::CostModel &CM,
                        const vm::ICacheConfig &IC) const {
  auto E = std::make_unique<Executable>();
  cogen::bindExternals(M, E->Prog);
  std::vector<bta::RegionInfo> Empty(M.numFunctions());
  std::vector<int> NoOrd(M.numFunctions(), -1);
  E->Lowered = cogen::lowerModule(M, E->Prog, /*WithRegions=*/false, Empty,
                                  NoOrd);
  E->AnnotatedOrdinal = std::move(NoOrd);
  E->Machine = std::make_unique<vm::VM>(E->Prog, CM, IC);
  return E;
}

std::unique_ptr<Executable>
DycContext::buildSpeculative(const speculate::SpeculationPolicy &Policy,
                             const OptFlags &Flags, const vm::CostModel &CM,
                             const vm::ICacheConfig &IC,
                             runtime::ChainBudget Budget) const {
  auto E = std::make_unique<Executable>();
  // The runtime strips annotations, binds externals, and lowers the
  // generic module into E->Prog itself (twins are appended later, at
  // promotion time).
  E->Spec = std::make_unique<speculate::SpeculativeRuntime>(
      M, E->Prog, Flags, Policy, Budget);
  E->Lowered = E->Spec->lowered();
  E->AnnotatedOrdinal.assign(M.numFunctions(), -1);
  E->Machine = std::make_unique<vm::VM>(E->Prog, CM, IC);
  E->Machine->Hook = E->Spec.get();
  E->Spec->arm(*E->Machine); // also attaches the machine to the core
  return E;
}

std::unique_ptr<Executable>
DycContext::buildDynamic(const OptFlags &Flags, const vm::CostModel &CM,
                         const vm::ICacheConfig &IC,
                         runtime::ChainBudget Budget) const {
  auto E = std::make_unique<Executable>();
  cogen::bindExternals(M, E->Prog);

  std::vector<bta::RegionInfo> Regions = bta::analyzeModule(M, Flags);
  std::vector<int> Ordinals = bta::regionOrdinals(Regions);

  E->Lowered = cogen::lowerModule(M, E->Prog, /*WithRegions=*/true, Regions,
                                  Ordinals);
  E->AnnotatedOrdinal = Ordinals;

  E->RT = std::make_unique<runtime::DycRuntime>(M, E->Prog, Flags, Budget);
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    if (Ordinals[I] < 0)
      continue;
    cogen::GenExtFunction GX =
        cogen::buildGenExt(M.function(static_cast<int>(I)), M,
                           std::move(Regions[I]), E->Lowered[I], Flags);
    E->RT->addRegion(std::move(GX));
  }

  E->Machine = std::make_unique<vm::VM>(E->Prog, CM, IC);
  E->Machine->Hook = E->RT.get();
  E->RT->core().attachVM(*E->Machine);
  return E;
}

} // namespace core
} // namespace dyc
