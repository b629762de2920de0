//===- analysis/ReachingDefs.h - Reaching-definitions analysis ------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward reaching-definitions dataflow over definition sites. The global
/// constant- and copy-propagation passes (the "traditional optimizations"
/// DyC applies before binding-time analysis) query it to prove that a use
/// sees exactly one definition.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_ANALYSIS_REACHINGDEFS_H
#define DYC_ANALYSIS_REACHINGDEFS_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

namespace dyc {
namespace analysis {

/// DefSite::InstrIdx of a parameter's pseudo-definition.
constexpr uint32_t ParamSite = 0xffffffffu;

/// One definition site.
struct DefSite {
  ir::BlockId Block = ir::NoBlock;
  uint32_t InstrIdx = 0;
  ir::Reg Defined = ir::NoReg;
};

/// Reaching definitions, numbering every instruction that defines a
/// register in block and instruction order, then one pseudo-definition per
/// parameter, attached to the entry block before its first instruction.
///
/// The sets live in flat arrays: each register's sites as one CSR list,
/// and one row of words per block for the sites reaching its entry. The
/// analysis stays valid while passes rewrite uses or replace an
/// instruction by one defining the same register; a change to any
/// terminator's targets or to any definition invalidates it.
class ReachingDefs {
public:
  ReachingDefs(const ir::Function &F, const CFG &G);

  const std::vector<DefSite> &defSites() const { return Sites; }

  /// Site indices of \p R's definitions, in site order.
  std::span<const uint32_t> sitesOf(ir::Reg R) const {
    return {RegSites.data() + RegStart[R], RegSites.data() + RegStart[R + 1]};
  }

  /// If exactly one definition of \p R reaches the use at (\p B, \p Idx),
  /// returns its def-site index; otherwise -1. Local definitions earlier in
  /// the block take precedence. Scans the block backwards; passes walking
  /// a block forwards use a Cursor, which gives the same answers.
  int uniqueReachingDef(const ir::Function &F, ir::BlockId B, size_t Idx,
                        ir::Reg R) const;

  /// A forward walk over one block at a time that answers
  /// uniqueReachingDef for the instruction at the current position, in
  /// O(1) when the definition is local to the block.
  class Cursor {
  public:
    explicit Cursor(const ReachingDefs &RD);

    /// Positions the cursor before the first instruction of \p B.
    void enterBlock(ir::BlockId B);

    /// uniqueReachingDef for a use of \p R at the current position.
    int uniqueReachingDef(ir::Reg R) const {
      return LocalEpoch[R] == Epoch ? static_cast<int>(LocalSite[R])
                                    : RD.uniqueAtEntry(Block, R);
    }

    /// Moves past \p I, the instruction at the current position.
    void advance(const ir::Instruction &I) {
      if (!I.definesReg())
        return;
      assert(RD.Sites[NextSite].Defined == I.Dst && "definitions changed");
      LocalEpoch[I.Dst] = Epoch;
      LocalSite[I.Dst] = NextSite++;
    }

  private:
    const ReachingDefs &RD;
    ir::BlockId Block = ir::NoBlock;
    uint32_t NextSite = 0; ///< site of the block's next definition
    uint32_t Epoch = 0;    ///< bumped per block; stale entries read as absent
    std::vector<uint32_t> LocalEpoch; ///< per register
    std::vector<uint32_t> LocalSite;  ///< latest local def, per register
  };

private:
  /// The unique definition of \p R reaching the entry of \p B, or -1.
  int uniqueAtEntry(ir::BlockId B, ir::Reg R) const;

  std::vector<DefSite> Sites;
  std::vector<uint32_t> BlockStart; ///< first instruction site per block
  std::vector<uint32_t> RegStart;   ///< sitesOf(R) is RegSites[RegStart[R],
  std::vector<uint32_t> RegSites;   ///<   RegStart[R + 1])
  size_t Words = 0;                 ///< words per row
  std::vector<uint64_t> In;         ///< sites reaching each block's entry
};

} // namespace analysis
} // namespace dyc

#endif // DYC_ANALYSIS_REACHINGDEFS_H
