//===- analysis/CFG.cpp --------------------------------------------------------===//

#include "analysis/CFG.h"

#include <algorithm>

namespace dyc {
namespace analysis {

using ir::BlockId;

CFG::CFG(const ir::Function &F)
    : Start(2 * F.numBlocks() + 1, 0), RPOIndex(F.numBlocks(), -1) {
  size_t N = F.numBlocks();

  // Count each list's length, turn the counts into end offsets, then fill
  // every list back to front, walking blocks and their successors in
  // reverse so the lists come out in forward order.
  for (BlockId B = 0; B != N; ++B)
    F.block(B).forEachSuccessor([&](BlockId S) {
      ++Start[B];
      ++Start[N + S];
    });
  for (size_t L = 1; L != Start.size(); ++L)
    Start[L] += Start[L - 1];
  Edges.resize(Start[2 * N]);
  for (BlockId B = N; B-- > 0;) {
    BlockId Succ[2];
    unsigned NumSucc = 0;
    F.block(B).forEachSuccessor([&](BlockId S) { Succ[NumSucc++] = S; });
    while (NumSucc-- > 0) {
      Edges[--Start[B]] = Succ[NumSucc];
      Edges[--Start[N + Succ[NumSucc]]] = B;
    }
  }

  // Iterative postorder DFS from the entry; RPOIndex marks visited blocks
  // with -2 until the final numbering.
  RPO.reserve(N);
  std::vector<std::pair<BlockId, uint32_t>> Stack; // block, next edge
  Stack.reserve(N);
  Stack.emplace_back(0, Start[0]);
  RPOIndex[0] = -2;
  while (!Stack.empty()) {
    auto &[B, NextEdge] = Stack.back();
    if (NextEdge != Start[B + 1]) {
      BlockId S = Edges[NextEdge++];
      if (RPOIndex[S] == -1) {
        RPOIndex[S] = -2;
        Stack.emplace_back(S, Start[S]);
      }
      continue;
    }
    RPO.push_back(B);
    Stack.pop_back();
  }

  std::reverse(RPO.begin(), RPO.end());
  for (size_t I = 0; I != RPO.size(); ++I)
    RPOIndex[RPO[I]] = static_cast<int>(I);
}

} // namespace analysis
} // namespace dyc
