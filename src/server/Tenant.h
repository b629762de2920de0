//===- server/Tenant.h - Per-tenant views of the SpecServer -----------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One TenantState per tenant of a SpecServer. Every server dispatches,
/// publishes and evicts through these views; a single-tenant server is
/// the case where every client is tenant 0, the default view that
/// SpecServer::makeClientVM() hands out. The contract that makes
/// multi-tenancy more than namespacing is *per-tenant counter parity*: a
/// tenant replaying a workload against a shared server must observe
/// counters bit-identical to a dedicated server replaying the same
/// workload. Three design points follow from it:
///
///  * Each tenant owns a full ShardedCache view: its own published copy
///    of every promotion point's CodeCache, fed only the tenant's inserts
///    and evictions. Probe counts feed the simulated dispatch-cost model
///    (cache_all charges per probe), so a shared probing table would
///    perturb every client's cycle counts the moment a second tenant
///    inserted anything; a private one probes exactly as a dedicated
///    server's, and as the inline runtime's cache fed the same keys.
///  * Each tenant owns a full ServerStats ledger counting its *view* of
///    events, and each event is counted once, there: an adoption from
///    the chain store bumps the tenant's `runs` and `chains` (a
///    dedicated server would have compiled) and its `dedup`. The
///    server-wide figures are sums over the ledgers, with the adoptions
///    (`dedup`) taken back out of `runs` and `chains`.
///  * Each tenant owns a runtime::ResidencyBook over
///    ServerConfig::Budget, swept by the core's one CLOCK algorithm
///    (RegionExecutionCore::admit), so eviction decisions — and every
///    counter downstream of them — match a dedicated server byte for
///    byte. Victims release their chain-store reference; a chain is
///    retired when its last reference drops.
///
/// TenantStates live in a deque owned by the server and are created by
/// makeClientVM — before any dispatch can name the tenant — which stores
/// the view's address on the client VM, so dispatch resolves a client's
/// tenant without a lock.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_TENANT_H
#define DYC_SERVER_TENANT_H

#include "server/ServerStats.h"
#include "server/ShardedCache.h"

#include <atomic>

namespace dyc {
namespace server {

/// Per-tenant admission limits. Zero means unlimited.
struct TenantQuota {
  /// Background/blocking compiles a tenant may have unfinished at once;
  /// misses past the cap are refused (counted in `quota-rej`) and
  /// served by the static fallback path.
  uint32_t MaxInFlightCompiles = 0;
};

/// Everything the server keeps per tenant. Not movable (ShardedCache owns
/// mutexes); constructed in place in a deque.
struct TenantState {
  TenantState(uint32_t Id, const CapacityBudget &Budget) : Id(Id) {
    Book.Budget = Budget;
  }
  TenantState(const TenantState &) = delete;
  TenantState &operator=(const TenantState &) = delete;

  uint32_t Id = 0;
  /// The tenant's dispatch cache: one point per (region, promotion), in
  /// the server's global point numbering, registered before the state is
  /// published.
  ShardedCache Cache;
  /// The tenant-view ledger (see file comment for the two-ledger rule).
  ServerStats St;
  /// Admission gauge for TenantQuota::MaxInFlightCompiles.
  std::atomic<uint32_t> InFlightCompiles{0};
  /// The view's CLOCK residency book; written under the server's
  /// specialization lock.
  runtime::ResidencyBook Book;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_TENANT_H
