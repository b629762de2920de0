//===- runtime/RuntimeStats.h - Per-region run-time statistics -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters the specializer maintains per region. Tables 2 and 3 of the
/// paper are computed from these (which optimizations actually fired;
/// instructions generated; dispatch behavior). The counters are stated
/// once, in runtime/RegionCounters.def and tier/TierCounters.def.
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
#define DYC_REGION_COUNTER(Name, Label) uint64_t Name = 0;
#include "runtime/RegionCounters.def"

  /// Tier counters, filled by a tiered SpecServer; TierEnabled prints them,
  /// so untiered output is byte-stable.
  bool TierEnabled = false;
#define DYC_TIER_COUNTER(Name, Label, Advice) uint64_t Name = 0;
#include "tier/TierCounters.def"

  /// Read only by the end-to-end benchmark (perfbench/), which reports
  /// them. The specializer runs its generating extension directly, with
  /// no staged emit plan, so they stay false, 0 and 0.
  bool PlanEnabled = false;
  uint64_t PlanBuilds = 0;
  uint64_t PlanBytes = 0;

  std::string toString() const;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_RUNTIMESTATS_H
