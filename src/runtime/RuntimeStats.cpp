//===- runtime/RuntimeStats.cpp ------------------------------------------------===//

#include "runtime/RuntimeStats.h"

#include "support/Support.h"

namespace dyc {
namespace runtime {

std::string RegionStats::toString() const {
  std::string S = formatString(
      "runs=%llu items=%llu gen=%llu sloads=%llu scalls=%llu(memo %llu) "
      "zcp=%llu dae=%llu mat=%llu sr=%llu folded-br=%llu dyn-br=%llu "
      "disp=%llu hit=%llu miss=%llu sites=%llu evict=%llu cap-hits=%llu "
      "max-copies=%llu",
      (unsigned long long)SpecializationRuns, (unsigned long long)WorkItems,
      (unsigned long long)InstructionsGenerated,
      (unsigned long long)StaticLoadsExecuted,
      (unsigned long long)StaticCallsExecuted,
      (unsigned long long)StaticCallMemoHits, (unsigned long long)ZcpApplied,
      (unsigned long long)DeadAssignsEliminated,
      (unsigned long long)MaterializedDeferred,
      (unsigned long long)StrengthReduced,
      (unsigned long long)BranchesFolded,
      (unsigned long long)DynamicBranchesEmitted,
      (unsigned long long)Dispatches, (unsigned long long)CacheHits,
      (unsigned long long)CacheMisses,
      (unsigned long long)DispatchSitesCreated,
      (unsigned long long)Evictions, (unsigned long long)CodeCapHits,
      (unsigned long long)MaxBlockInstances);
  if (TierEnabled)
    S += formatString(
        " cold=%llu warm=%llu warm-promo=%llu hot-promo=%llu "
        "hot-installs=%llu osr=%llu osr-polls=%llu",
        (unsigned long long)ColdExecs, (unsigned long long)WarmExecs,
        (unsigned long long)WarmPromotions,
        (unsigned long long)HotPromotions, (unsigned long long)HotInstalls,
        (unsigned long long)OsrEntries, (unsigned long long)OsrPolls);
  S += formatString(" plan-builds=%llu plan-hits=%llu plan-bytes=%llu",
                    (unsigned long long)PlanBuilds,
                    (unsigned long long)PlanHits,
                    (unsigned long long)PlanBytes);
  return S;
}

} // namespace runtime
} // namespace dyc
