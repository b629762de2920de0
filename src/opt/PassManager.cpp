//===- opt/PassManager.cpp --------------------------------------------------------===//

#include "opt/Passes.h"

namespace dyc {
namespace opt {

unsigned runStaticOptimizations(ir::Function &F, const ir::Module &M) {
  unsigned Applications = 0;
  // Bounded fixpoint; each round runs the classic pipeline once and builds
  // each analysis once, rebuilding it only after a pass that invalidates
  // it (docs/INTERNALS.md section 2).
  for (unsigned Round = 0; Round != 8; ++Round) {
    bool Changed = false;
    auto Count = [&](bool PassChanged) {
      if (PassChanged) {
        Changed = true;
        ++Applications;
      }
    };

    // Folding keeps every def site and copy propagation rewrites only
    // uses, so one ReachingDefs serves both unless a branch folded.
    analysis::CFG G(F);
    analysis::ReachingDefs RD(F, G);
    FoldResult Fold = runConstantFold(F, RD);
    Count(Fold.Changed);
    if (Fold.FoldedBranch) {
      G = analysis::CFG(F);
      RD = analysis::ReachingDefs(F, G);
    }
    Count(runCopyPropagation(F, RD));

    // Coalescing renames only block-local temporaries, so no block's
    // live-in or live-out set changes and DCE reads the same Liveness
    // (docs/INTERNALS.md section 2).
    analysis::Liveness LV(F, G);
    Count(runCoalesceMoves(F, LV));
    Count(runDeadCodeElim(F, M, LV));

    Count(runSimplifyCFG(F));
    if (!Changed)
      break;
  }
  return Applications;
}

unsigned runStaticOptimizations(ir::Module &M) {
  unsigned Applications = 0;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    Applications +=
        runStaticOptimizations(M.function(static_cast<int>(I)), M);
  return Applications;
}

} // namespace opt
} // namespace dyc
