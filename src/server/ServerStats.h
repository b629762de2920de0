//===- server/ServerStats.h - SpecServer counters ---------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Service-level counters for the SpecServer, stated once in
/// server/ServerCounters.def. Unlike RegionStats (owned by the
/// single-threaded runtime and mutated only under the server's
/// specialization lock), the ledger counters are touched on every client
/// dispatch, so each is a relaxed atomic. Each tenant view of a server owns
/// one ServerStats ledger (server/Tenant.h), and every event is counted
/// once, in the ledger of the tenant it happened for; SpecServer::stats()
/// derives the server-wide snapshot from the ledgers.
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
#define DYC_LEDGER(Name, Group, Label) uint64_t Name = 0;
#define DYC_GAUGE(Name, Group, Label) uint64_t Name = 0;
#define DYC_SERVER_FLAG(Name) bool Name = false;
#define DYC_TIER_COUNTER(Name, Label, Advice) uint64_t Name = 0;
#include "server/ServerCounters.def"

  std::string toString() const;
};

/// The live counters of one tenant view. Relaxed ordering throughout:
/// these are statistics, not synchronization; publication of code and
/// cache state is ordered by the cache's release stores and the
/// specialization lock. The snapshot's gauges are kept server-wide, not
/// here.
struct ServerStats {
#define DYC_LEDGER(Name, Group, Label) std::atomic<uint64_t> Name{0};
#include "server/ServerCounters.def"

  /// Adds every counter to the matching field of \p S.
  void addTo(ServerStatsSnapshot &S) const;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SERVERSTATS_H
