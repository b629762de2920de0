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

  /// Staged emit plans (cogen/EmitPlan.h). Every specialization runs
  /// through the region's plan, so PlanEnabled is always true; it remains
  /// because the end-to-end benchmark (perfbench/) reads it.
  bool PlanEnabled = true;
#define DYC_PLAN_COUNTER(Name, Label) uint64_t Name = 0;
#include "runtime/RegionCounters.def"

  std::string toString() const;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_RUNTIMESTATS_H
