//===- tests/ReferenceSchedule.h - Rebuild-per-pass optimizer rounds ------------===//
//
// The optimizer's reference round schedule: up to 8 rounds of the five
// passes, each pass given a CFG and an analysis built fresh just before it
// runs. runStaticOptimizations builds each analysis once per round and
// rebuilds only what a pass invalidated; the differential tests in
// OptTest and FuzzTest require both schedules to print the same module
// and to count the same pass applications.
//
//===----------------------------------------------------------------------===//

#ifndef DYC_TESTS_REFERENCESCHEDULE_H
#define DYC_TESTS_REFERENCESCHEDULE_H

#include "bta/BTAnalysis.h"
#include "frontend/Lower.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

namespace dyc {
namespace reftest {

/// runStaticOptimizations for one function, rebuilding before every pass.
inline unsigned optimizeRebuildingEveryPass(ir::Function &F,
                                            const ir::Module &M) {
  using analysis::CFG;
  unsigned Applications = 0;
  for (unsigned Round = 0; Round != 8; ++Round) {
    bool Changed = false;
    auto Count = [&](bool PassChanged) {
      if (PassChanged) {
        Changed = true;
        ++Applications;
      }
    };
    Count(opt::runConstantFold(F, analysis::ReachingDefs(F, CFG(F))).Changed);
    Count(opt::runCopyPropagation(F, analysis::ReachingDefs(F, CFG(F))));
    Count(opt::runCoalesceMoves(F, analysis::Liveness(F, CFG(F))));
    Count(opt::runDeadCodeElim(F, M, analysis::Liveness(F, CFG(F))));
    Count(opt::runSimplifyCFG(F));
    if (!Changed)
      break;
  }
  return Applications;
}

/// The module the optimizer sees: front end plus annotation normalization.
inline ir::Module lowerForOptimizer(const std::string &Src) {
  ir::Module M;
  std::vector<std::string> Errors;
  EXPECT_TRUE(frontend::compileMiniC(Src, M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  for (size_t I = 0; I != M.numFunctions(); ++I)
    bta::normalizeAnnotations(M.function(static_cast<int>(I)));
  return M;
}

/// Optimizes \p Src under both schedules and expects the same module text
/// and application count.
inline void expectSchedulesAgree(const std::string &Src,
                                 const std::string &What) {
  ir::Module Shared = lowerForOptimizer(Src);
  ir::Module Ref = lowerForOptimizer(Src);
  unsigned SharedApps = opt::runStaticOptimizations(Shared);
  unsigned RefApps = 0;
  for (size_t I = 0; I != Ref.numFunctions(); ++I)
    RefApps +=
        optimizeRebuildingEveryPass(Ref.function(static_cast<int>(I)), Ref);
  EXPECT_EQ(SharedApps, RefApps) << What;
  EXPECT_EQ(ir::printModule(Shared), ir::printModule(Ref)) << What;
}

} // namespace reftest
} // namespace dyc

#endif // DYC_TESTS_REFERENCESCHEDULE_H
