//===- speculate/SpeculationStats.h - Promotion lifecycle counters ----------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters over the profile -> promote -> guard -> deopt -> demote
/// lifecycle. All are simulated-deterministic: both VM engines and every
/// run of the same program produce identical values.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SPECULATE_SPECULATIONSTATS_H
#define DYC_SPECULATE_SPECULATIONSTATS_H

#include <cstdint>
#include <string>

namespace dyc {
namespace speculate {

/// Lifecycle counters of the speculative promotion subsystem.
struct SpeculationStats {
  uint64_t CallsObserved = 0;      ///< guarded calls profiled
  uint64_t Promotions = 0;         ///< twins synthesized and guarded
  uint64_t PromotionsDeclined = 0; ///< hot functions judged not worth it
  uint64_t Demotions = 0;          ///< guards torn down for thrashing
  uint64_t GuardChecks = 0;        ///< guard evaluations
  uint64_t GuardHits = 0;          ///< checks that entered the twin
  uint64_t GuardFailures = 0;      ///< checks that deoptimized
  uint64_t ParamsBlacklisted = 0;  ///< parameters retired from speculation

  /// The --stats text: a "speculation:" line (calls, promotions,
  /// demotions, blacklisted parameters) and a "guards:" line, each ending
  /// in a newline.
  std::string toString() const;
};

} // namespace speculate
} // namespace dyc

#endif // DYC_SPECULATE_SPECULATIONSTATS_H
