//===- analysis/CFG.h - Control-flow-graph utilities --------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derived CFG structure for a function: successor/predecessor lists,
/// reverse postorder, and reachability. All analyses start here.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_ANALYSIS_CFG_H
#define DYC_ANALYSIS_CFG_H

#include "ir/Function.h"

#include <span>
#include <vector>

namespace dyc {
namespace analysis {

/// Successors, predecessors, and orderings for a function's CFG.
class CFG {
public:
  explicit CFG(const ir::Function &F);

  /// Successors in terminator order; predecessors in block order. A condbr
  /// whose targets coincide contributes two entries to each list.
  std::span<const ir::BlockId> succs(ir::BlockId B) const { return list(B); }
  std::span<const ir::BlockId> preds(ir::BlockId B) const {
    return list(numBlocks() + B);
  }

  /// Blocks in reverse postorder from the entry; unreachable blocks are
  /// absent.
  const std::vector<ir::BlockId> &rpo() const { return RPO; }

  /// Position of \p B in the RPO sequence, or -1 if unreachable.
  int rpoIndex(ir::BlockId B) const { return RPOIndex[B]; }

  bool isReachable(ir::BlockId B) const { return RPOIndex[B] >= 0; }

  size_t numBlocks() const { return RPOIndex.size(); }

private:
  std::span<const ir::BlockId> list(size_t L) const {
    return {Edges.data() + Start[L], Edges.data() + Start[L + 1]};
  }

  /// Every block's successor list, then every block's predecessor list,
  /// in one array: list L is Edges[Start[L], Start[L + 1]).
  std::vector<ir::BlockId> Edges;
  std::vector<uint32_t> Start;
  std::vector<ir::BlockId> RPO;
  std::vector<int> RPOIndex;
};

} // namespace analysis
} // namespace dyc

#endif // DYC_ANALYSIS_CFG_H
