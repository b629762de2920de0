//===- server/ServerStats.cpp ------------------------------------------------------===//

#include "server/ServerStats.h"

#include "support/Support.h"

namespace dyc {
namespace server {

ServerStatsSnapshot ServerStats::snapshot() const {
  ServerStatsSnapshot S;
  S.Dispatches = Dispatches.load(std::memory_order_relaxed);
  S.CacheHits = CacheHits.load(std::memory_order_relaxed);
  S.CacheMisses = CacheMisses.load(std::memory_order_relaxed);
  S.Fallbacks = Fallbacks.load(std::memory_order_relaxed);
  S.FallbacksInFlight = FallbacksInFlight.load(std::memory_order_relaxed);
  S.FallbacksFailed = FallbacksFailed.load(std::memory_order_relaxed);
  S.FallbacksNotRequested =
      FallbacksNotRequested.load(std::memory_order_relaxed);
  S.JobsEnqueued = JobsEnqueued.load(std::memory_order_relaxed);
  S.JobsCoalesced = JobsCoalesced.load(std::memory_order_relaxed);
  S.InlineSpecs = InlineSpecs.load(std::memory_order_relaxed);
  S.SpecRuns = SpecRuns.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.ChainsCreated = ChainsCreated.load(std::memory_order_relaxed);
  S.ChainsCollected = ChainsCollected.load(std::memory_order_relaxed);
  S.SnapshotsRetired = SnapshotsRetired.load(std::memory_order_relaxed);
  S.SnapshotsFreed = SnapshotsFreed.load(std::memory_order_relaxed);
  S.DedupHits = DedupHits.load(std::memory_order_relaxed);
  S.QuotaRejections = QuotaRejections.load(std::memory_order_relaxed);
  S.WarmHits = WarmHits.load(std::memory_order_relaxed);
  return S;
}

std::string ServerStatsSnapshot::toString() const {
  std::string S = formatString(
      "disp=%llu hit=%llu miss=%llu fallback=%llu enq=%llu coalesced=%llu "
      "inline=%llu runs=%llu evict=%llu chains=%llu collected=%llu "
      "snaps=%llu/%llu",
      (unsigned long long)Dispatches, (unsigned long long)CacheHits,
      (unsigned long long)CacheMisses, (unsigned long long)Fallbacks,
      (unsigned long long)JobsEnqueued, (unsigned long long)JobsCoalesced,
      (unsigned long long)InlineSpecs, (unsigned long long)SpecRuns,
      (unsigned long long)Evictions, (unsigned long long)ChainsCreated,
      (unsigned long long)ChainsCollected,
      (unsigned long long)SnapshotsFreed,
      (unsigned long long)SnapshotsRetired);
  if (FallbacksInFlight || FallbacksFailed || FallbacksNotRequested)
    S += formatString(" fb-inflight=%llu fb-failed=%llu fb-skip=%llu",
                      (unsigned long long)FallbacksInFlight,
                      (unsigned long long)FallbacksFailed,
                      (unsigned long long)FallbacksNotRequested);
  if (TierEnabled)
    S += formatString(
        " tier[cold=%llu warm=%llu warm-promo=%llu hot-promo=%llu "
        "hot-installs=%llu osr=%llu osr-polls=%llu qdepth=%llu]",
        (unsigned long long)ColdExecs, (unsigned long long)WarmExecs,
        (unsigned long long)WarmPromotions,
        (unsigned long long)HotPromotions, (unsigned long long)HotInstalls,
        (unsigned long long)OsrEntries, (unsigned long long)OsrPolls,
        (unsigned long long)CompileQueueDepth);
  S += formatString(" plan[builds=%llu hits=%llu bytes=%llu]",
                    (unsigned long long)PlanBuilds,
                    (unsigned long long)PlanHits,
                    (unsigned long long)PlanBytes);
  if (MultiTenant)
    S += formatString(
        " mt[tenants=%llu dedup=%llu quota-rej=%llu warm=%llu store=%llu]",
        (unsigned long long)Tenants, (unsigned long long)DedupHits,
        (unsigned long long)QuotaRejections, (unsigned long long)WarmHits,
        (unsigned long long)StoreChains);
  return S;
}

} // namespace server
} // namespace dyc
