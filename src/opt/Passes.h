//===- opt/Passes.h - Traditional static optimizations -------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "traditional intraprocedural optimizations" DyC applies before
/// binding-time analysis (paper section 2.1): constant folding and
/// propagation, copy propagation, dead-code elimination, and CFG
/// simplification. Each pass takes the analyses it reads and returns true
/// if it changed the function; the pass manager builds the analyses and
/// iterates the passes to a fixpoint.
///
/// The passes are annotation-aware: facts are never propagated in a way
/// that would bypass a `make_static` promotion of a source variable, since
/// that would change which values the BTA can specialize on.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_OPT_PASSES_H
#define DYC_OPT_PASSES_H

#include "analysis/Liveness.h"
#include "analysis/ReachingDefs.h"
#include "ir/Module.h"

namespace dyc {
namespace opt {

/// What a constant-folding run changed.
struct FoldResult {
  bool Changed = false;
  /// Some conditional branch became unconditional: the CFG changed, so
  /// every analysis built on it is stale.
  bool FoldedBranch = false;
};

/// Folds instructions whose operands are all known constants; rewrites
/// conditional branches on constants into unconditional ones. \p RD must
/// describe \p F as it is.
FoldResult runConstantFold(ir::Function &F,
                           const analysis::ReachingDefs &RD);

/// Replaces uses of a copy's destination with its source (block-local
/// table, plus the global single-definition case).
bool runCopyPropagation(ir::Function &F, const analysis::ReachingDefs &RD);

/// Coalesces `t = op ...; v = mov t` into `v = op ...` when t has no other
/// use (classic copy coalescing of lowering temporaries).
bool runCoalesceMoves(ir::Function &F, const analysis::Liveness &LV);

/// Deletes side-effect-free instructions whose results are dead.
bool runDeadCodeElim(ir::Function &F, const ir::Module &M,
                     const analysis::Liveness &LV);

/// Threads trivial jumps, folds condbr with identical targets, and stubs
/// out unreachable blocks.
bool runSimplifyCFG(ir::Function &F);

/// Runs all passes to a fixpoint (bounded rounds) on every function in
/// \p M, building each analysis once per round unless a pass invalidates
/// it. Returns the number of pass applications that reported a change.
unsigned runStaticOptimizations(ir::Module &M);

/// Same for a single function.
unsigned runStaticOptimizations(ir::Function &F, const ir::Module &M);

} // namespace opt
} // namespace dyc

#endif // DYC_OPT_PASSES_H
