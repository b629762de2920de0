//===- server/ServerStats.h - SpecServer counters ---------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Service-level counters for the SpecServer. Unlike RegionStats (owned by
/// the single-threaded runtime and mutated only under the server's
/// specialization lock), these are touched on every client dispatch, so
/// every field is a relaxed atomic. snapshot() flattens them into plain
/// integers for reporting.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_SERVERSTATS_H
#define DYC_SERVER_SERVERSTATS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace dyc {
namespace server {

/// Plain-integer copy of the counters at one instant.
struct ServerStatsSnapshot {
  uint64_t Dispatches = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Fallbacks = 0;      ///< misses served by the static path (total)
  /// Fallbacks split by cause: the miss joined (or started) a compile
  /// that is still in flight, vs. no compile exists for it — the job was
  /// refused (shutdown) or, under tiering, the key has not reached the
  /// hot tier. InFlight + Failed + NotRequested == Fallbacks.
  uint64_t FallbacksInFlight = 0;
  uint64_t FallbacksFailed = 0;
  uint64_t FallbacksNotRequested = 0; ///< tiered cold/warm executions
  uint64_t JobsEnqueued = 0;
  uint64_t JobsCoalesced = 0;  ///< misses that joined an in-flight job
  uint64_t InlineSpecs = 0;    ///< nested misses specialized on a worker
  uint64_t SpecRuns = 0;       ///< generating-extension invocations
  uint64_t Evictions = 0;      ///< capacity-manager evictions
  uint64_t ChainsCreated = 0;
  uint64_t ChainsCollected = 0; ///< evicted chains freed after draining
  uint64_t SnapshotsRetired = 0;
  uint64_t SnapshotsFreed = 0;
  /// Tiered execution (all filled by SpecServer::stats from its
  /// TierController; zero and unrendered when tiering is off).
  bool TierEnabled = false;
  uint64_t ColdExecs = 0;
  uint64_t WarmExecs = 0;
  uint64_t WarmPromotions = 0;
  uint64_t HotPromotions = 0;
  uint64_t HotInstalls = 0;
  uint64_t OsrEntries = 0;
  uint64_t OsrPolls = 0;
  /// Gauge, not a counter: submitted-but-unfinished compile jobs at the
  /// instant of the snapshot.
  uint64_t CompileQueueDepth = 0;
  /// Staged emit plans (filled by SpecServer::stats by summing the core's
  /// per-region counters under the specialization lock).
  uint64_t PlanBuilds = 0;
  uint64_t PlanHits = 0;
  uint64_t PlanBytes = 0;
  /// Multi-tenancy (filled by SpecServer::stats / tenantStats when the
  /// server was built multi-tenant; zero and unrendered otherwise).
  bool MultiTenant = false;
  uint64_t Tenants = 0;        ///< gauge: tenants registered so far
  uint64_t DedupHits = 0;      ///< publications served from the chain store
  uint64_t QuotaRejections = 0; ///< misses refused by per-tenant admission
  uint64_t WarmHits = 0;       ///< adoptions of warm-start-loaded chains
  uint64_t StoreChains = 0;    ///< gauge: chains resident in the store

  std::string toString() const;
};

/// The live counters. Relaxed ordering throughout: these are statistics,
/// not synchronization; publication of code and cache state is ordered by
/// the cache's release stores and the specialization lock.
struct ServerStats {
  std::atomic<uint64_t> Dispatches{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheMisses{0};
  std::atomic<uint64_t> Fallbacks{0};
  std::atomic<uint64_t> FallbacksInFlight{0};
  std::atomic<uint64_t> FallbacksFailed{0};
  std::atomic<uint64_t> FallbacksNotRequested{0};
  std::atomic<uint64_t> JobsEnqueued{0};
  std::atomic<uint64_t> JobsCoalesced{0};
  std::atomic<uint64_t> InlineSpecs{0};
  std::atomic<uint64_t> SpecRuns{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> ChainsCreated{0};
  std::atomic<uint64_t> ChainsCollected{0};
  std::atomic<uint64_t> SnapshotsRetired{0};
  std::atomic<uint64_t> SnapshotsFreed{0};
  /// Multi-tenancy. On the server's global ServerStats these count actual
  /// events across all tenants; on a TenantState's ServerStats they count
  /// the tenant's own view (see server/Tenant.h for the two-ledger
  /// contract). Always zero on single-tenant servers.
  std::atomic<uint64_t> DedupHits{0};
  std::atomic<uint64_t> QuotaRejections{0};
  std::atomic<uint64_t> WarmHits{0};

  ServerStatsSnapshot snapshot() const;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SERVERSTATS_H
