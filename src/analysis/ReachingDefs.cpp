//===- analysis/ReachingDefs.cpp ---------------------------------------------------===//

#include "analysis/ReachingDefs.h"

#include <algorithm>

namespace dyc {
namespace analysis {

using ir::BlockId;
using ir::Reg;

ReachingDefs::ReachingDefs(const ir::Function &F, const CFG &G) {
  size_t N = F.numBlocks();
  BlockStart.resize(N + 1);
  for (BlockId B = 0; B != N; ++B) {
    BlockStart[B] = static_cast<uint32_t>(Sites.size());
    const std::vector<ir::Instruction> &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0; I != Instrs.size(); ++I)
      if (Instrs[I].definesReg())
        Sites.push_back({B, I, Instrs[I].Dst});
  }
  BlockStart[N] = static_cast<uint32_t>(Sites.size());
  // Function parameters act as implicit definitions at entry; model them
  // as virtual def sites attached to the entry block, before instruction 0.
  for (Reg P = 0; P != F.NumParams; ++P)
    Sites.push_back({0, ParamSite, P});

  // Group the sites by register: count, turn the counts into end offsets,
  // and fill back to front so each list comes out in site order.
  RegStart.assign(F.numRegs() + 1, 0);
  for (const DefSite &D : Sites)
    ++RegStart[D.Defined];
  for (size_t R = 1; R != RegStart.size(); ++R)
    RegStart[R] += RegStart[R - 1];
  RegSites.resize(Sites.size());
  for (uint32_t S = static_cast<uint32_t>(Sites.size()); S-- > 0;)
    RegSites[--RegStart[Sites[S].Defined]] = S;

  // Gen/Kill in one backward walk per block: the first definition of R
  // met is the block's last, so it is generated, and it kills every
  // definition of R, itself included (Gen wins over Kill below). The
  // parameter pseudo-defs are walked after the entry block's instructions,
  // which keeps the parameter rule: a pseudo-def is generated at the entry
  // block unless the block redefines the parameter, and it kills the
  // parameter's other definitions there even when the block does not.
  size_t NumSites = Sites.size();
  Words = (NumSites + 63) / 64;
  std::vector<uint64_t> Gen(N * Words, 0);
  std::vector<uint64_t> Kill(N * Words, 0);
  std::vector<BlockId> MetIn(F.numRegs(), ir::NoBlock);
  auto Walk = [&](BlockId B, uint32_t Begin, uint32_t End) {
    for (uint32_t S = End; S-- > Begin;) {
      Reg R = Sites[S].Defined;
      if (MetIn[R] == B)
        continue;
      MetIn[R] = B;
      setBit(Gen.data() + B * Words, S);
      for (uint32_t Other : sitesOf(R))
        setBit(Kill.data() + B * Words, Other);
    }
  };
  for (BlockId B = 0; B != N; ++B) {
    Walk(B, BlockStart[B], BlockStart[B + 1]);
    if (B == 0)
      Walk(0, BlockStart[N], static_cast<uint32_t>(NumSites));
  }

  // Iterate to the fixpoint in place; Scratch gathers a block's new In.
  In.assign(N * Words, 0);
  std::vector<uint64_t> Out(N * Words, 0);
  std::vector<uint64_t> Scratch(Words);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : G.rpo()) {
      std::fill(Scratch.begin(), Scratch.end(), 0);
      if (B == 0) // parameter pseudo-defs reach the entry block's In set
        for (size_t S = BlockStart[N]; S != NumSites; ++S)
          setBit(Scratch.data(), S);
      for (BlockId P : G.preds(B))
        for (size_t W = 0; W != Words; ++W)
          Scratch[W] |= Out[P * Words + W];
      for (size_t W = 0; W != Words; ++W) {
        size_t Idx = B * Words + W;
        uint64_t NewOut = (Scratch[W] & ~Kill[Idx]) | Gen[Idx];
        Changed |= In[Idx] != Scratch[W] || Out[Idx] != NewOut;
        In[Idx] = Scratch[W];
        Out[Idx] = NewOut;
      }
    }
  }
}

int ReachingDefs::uniqueAtEntry(BlockId B, Reg R) const {
  const uint64_t *Row = In.data() + B * Words;
  int Found = -1;
  for (uint32_t SiteIdx : sitesOf(R)) {
    if (!testBit(Row, SiteIdx))
      continue;
    if (Found >= 0)
      return -1; // more than one
    Found = static_cast<int>(SiteIdx);
  }
  return Found;
}

int ReachingDefs::uniqueReachingDef(const ir::Function &F, BlockId B,
                                    size_t Idx, Reg R) const {
  // A local def earlier in the block wins.
  const ir::BasicBlock &BB = F.block(B);
  for (size_t I = Idx; I-- > 0;) {
    const ir::Instruction &In = BB.Instrs[I];
    if (In.definesReg() && In.Dst == R) {
      for (uint32_t SiteIdx : sitesOf(R)) {
        const DefSite &D = Sites[SiteIdx];
        if (D.Block == B && D.InstrIdx == I)
          return static_cast<int>(SiteIdx);
      }
      return -1;
    }
  }
  // Otherwise all defs reaching block entry.
  return uniqueAtEntry(B, R);
}

ReachingDefs::Cursor::Cursor(const ReachingDefs &RD)
    : RD(RD), LocalEpoch(RD.RegStart.size() - 1, 0),
      LocalSite(RD.RegStart.size() - 1, 0) {}

void ReachingDefs::Cursor::enterBlock(BlockId B) {
  Block = B;
  NextSite = RD.BlockStart[B];
  ++Epoch;
}

} // namespace analysis
} // namespace dyc
