//===- analysis/Liveness.h - Backward live-register analysis -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward liveness over virtual registers. DyC's pipeline uses it
/// in three places: to bound dynamic regions ("ending after the last use of
/// any static value", paper section 2.2), to select the static registers
/// that must be materialized when generated code exits a region, and to
/// keep promotion-point cache keys down to live static variables.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_ANALYSIS_LIVENESS_H
#define DYC_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

namespace dyc {
namespace analysis {

/// Per-block live-in/live-out register sets.
class Liveness {
public:
  Liveness(const ir::Function &F, const CFG &G);

  const BitVector &liveIn(ir::BlockId B) const { return LiveIn[B]; }
  const BitVector &liveOut(ir::BlockId B) const { return LiveOut[B]; }

  /// Registers live immediately *before* instruction \p Idx of block \p B
  /// (recomputed by a local backward walk; O(block size)).
  BitVector liveBefore(const ir::Function &F, ir::BlockId B,
                       size_t Idx) const;

private:
  std::vector<BitVector> LiveIn;
  std::vector<BitVector> LiveOut;
};

} // namespace analysis
} // namespace dyc

#endif // DYC_ANALYSIS_LIVENESS_H
