//===- server/ServerStats.cpp ------------------------------------------------------===//

#include "server/ServerStats.h"

#include "support/Support.h"

namespace dyc {
namespace server {

void ServerStats::addTo(ServerStatsSnapshot &S) const {
  auto Add = [](uint64_t &To, const std::atomic<uint64_t> &From) {
    To += From.load(std::memory_order_relaxed);
  };
  Add(S.Dispatches, Dispatches);
  Add(S.CacheHits, CacheHits);
  Add(S.CacheMisses, CacheMisses);
  Add(S.Fallbacks, Fallbacks);
  Add(S.FallbacksInFlight, FallbacksInFlight);
  Add(S.FallbacksFailed, FallbacksFailed);
  Add(S.FallbacksNotRequested, FallbacksNotRequested);
  Add(S.JobsEnqueued, JobsEnqueued);
  Add(S.JobsCoalesced, JobsCoalesced);
  Add(S.InlineSpecs, InlineSpecs);
  Add(S.SpecRuns, SpecRuns);
  Add(S.Evictions, Evictions);
  Add(S.ChainsCreated, ChainsCreated);
  Add(S.SnapshotsFreed, SnapshotsFreed);
  Add(S.DedupHits, DedupHits);
  Add(S.QuotaRejections, QuotaRejections);
  Add(S.WarmHits, WarmHits);
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
