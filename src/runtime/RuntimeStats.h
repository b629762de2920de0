//===- runtime/RuntimeStats.h - Per-region run-time statistics -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters the specializer maintains per region. Tables 2 and 3 of the
/// paper are computed from these (which optimizations actually fired;
/// instructions generated; dispatch behavior).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_RUNTIMESTATS_H
#define DYC_RUNTIME_RUNTIMESTATS_H

#include <cstdint>
#include <string>

namespace dyc {
namespace runtime {

/// Counters for one region (annotated function).
struct RegionStats {
  uint64_t SpecializationRuns = 0;
  uint64_t WorkItems = 0;
  uint64_t InstructionsGenerated = 0;

  uint64_t StaticLoadsExecuted = 0;
  uint64_t StaticCallsExecuted = 0;
  uint64_t StaticCallMemoHits = 0;

  uint64_t ZcpApplied = 0;          ///< operations reduced to moves/clears
  uint64_t DeadAssignsEliminated = 0; ///< deferred instructions dropped
  uint64_t MaterializedDeferred = 0;  ///< deferred instructions forced out
  uint64_t StrengthReduced = 0;
  uint64_t BranchesFolded = 0;      ///< static (or propagated) branch folds
  uint64_t DynamicBranchesEmitted = 0;

  uint64_t Dispatches = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t DispatchSitesCreated = 0; ///< internal promotion sites emitted
  /// Cached specializations displaced: cache_one key mismatches, plus
  /// capacity (CLOCK) evictions against a ChainBudget.
  uint64_t Evictions = 0;
  /// Instructions emitted past OptFlags::MaxRegionInstrs (soft cap).
  uint64_t CodeCapHits = 0;

  uint64_t MaxBlockInstances = 0; ///< max specializations of one context —
                                  ///< >1 is loop-unrolling evidence

  /// Tiered execution (filled by the tiered SpecServer from its
  /// TierController; all zero — and unrendered — otherwise). TierEnabled
  /// gates the toString suffix so untieried output is byte-stable.
  bool TierEnabled = false;
  uint64_t ColdExecs = 0;
  uint64_t WarmExecs = 0;
  uint64_t WarmPromotions = 0;
  uint64_t HotPromotions = 0;
  uint64_t HotInstalls = 0;
  uint64_t OsrEntries = 0;
  uint64_t OsrPolls = 0;

  /// Staged emit plans (cogen/EmitPlan.h). Every specialization runs
  /// through the region's plan, so PlanEnabled is always true; it remains
  /// because the end-to-end benchmark (perfbench/) reads it.
  bool PlanEnabled = true;
  uint64_t PlanBuilds = 0; ///< plans created (once per region)
  uint64_t PlanHits = 0;   ///< specialization runs served by an existing plan
  /// Key lists plus the block programs and guard arms built so far (arm
  /// seeds included): grows when a key reaches a new block or first takes
  /// a new arm.
  uint64_t PlanBytes = 0;

  std::string toString() const;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_RUNTIMESTATS_H
