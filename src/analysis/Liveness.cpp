//===- analysis/Liveness.cpp -----------------------------------------------------===//

#include "analysis/Liveness.h"

namespace dyc {
namespace analysis {

using ir::BlockId;
using ir::Reg;

Liveness::Liveness(const ir::Function &F, const CFG &G) {
  size_t N = F.numBlocks();
  size_t R = F.numRegs();
  LiveIn.assign(N, BitVector(R));
  LiveOut.assign(N, BitVector(R));

  // Per-block use (upward-exposed) and def sets, one row of words each.
  size_t Words = (R + 63) / 64;
  std::vector<uint64_t> Use(N * Words, 0);
  std::vector<uint64_t> Def(N * Words, 0);
  for (BlockId B = 0; B != N; ++B) {
    uint64_t *U = Use.data() + B * Words;
    uint64_t *D = Def.data() + B * Words;
    for (const ir::Instruction &I : F.block(B).Instrs) {
      I.forEachUse([&](Reg X) {
        if (!testBit(D, X))
          setBit(U, X);
      });
      if (I.definesReg())
        setBit(D, I.Dst);
    }
  }

  // Iterate to fixpoint in place, visiting blocks in reverse RPO
  // (approximate postorder) for fast convergence.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = G.rpo().rbegin(); It != G.rpo().rend(); ++It) {
      BlockId B = *It;
      uint64_t *Out = LiveOut[B].words();
      uint64_t *In = LiveIn[B].words();
      for (size_t W = 0; W != Words; ++W) {
        uint64_t NewOut = 0;
        for (BlockId S : G.succs(B))
          NewOut |= LiveIn[S].words()[W];
        uint64_t NewIn =
            (NewOut & ~Def[B * Words + W]) | Use[B * Words + W];
        Changed |= Out[W] != NewOut || In[W] != NewIn;
        Out[W] = NewOut;
        In[W] = NewIn;
      }
    }
  }
}

BitVector Liveness::liveBefore(const ir::Function &F, BlockId B,
                               size_t Idx) const {
  BitVector Live = LiveOut[B];
  const ir::BasicBlock &BB = F.block(B);
  assert(Idx <= BB.Instrs.size() && "instruction index out of range");
  for (size_t I = BB.Instrs.size(); I-- > Idx;) {
    const ir::Instruction &In = BB.Instrs[I];
    if (In.definesReg())
      Live.reset(In.Dst);
    In.forEachUse([&](Reg U) { Live.set(U); });
  }
  return Live;
}

} // namespace analysis
} // namespace dyc
