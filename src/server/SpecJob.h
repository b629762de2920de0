//===- server/SpecJob.h - Specialization jobs, queue, in-flight dedup -------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cache miss becomes a SpecJob keyed by (point, full cache key) — the
/// point already encodes (region, promotion point), and the key carries
/// the baked static values plus the promoted registers' run-time values.
/// The in-flight table coalesces concurrent misses on the same key into
/// one job: the first misser creates and enqueues it, later missers join
/// its shared future, and the queue's bounded capacity backpressures
/// producers when the workers fall behind.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_SPECJOB_H
#define DYC_SERVER_SPECJOB_H

#include "server/ShardedCache.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace dyc {
namespace server {

struct TenantState;

/// Identity of a pending specialization. Jobs are keyed per tenant: each
/// tenant publishes into its own cache view, so two tenants missing on
/// the same (point, key) are two distinct publications even though the
/// chain store will hand the second one the first's compiled chain.
struct JobKey {
  uint32_t Tenant = 0;
  size_t Point = 0;
  std::vector<Word> Key;

  bool operator<(const JobKey &O) const {
    if (Tenant != O.Tenant)
      return Tenant < O.Tenant;
    if (Point != O.Point)
      return Point < O.Point;
    if (Key.size() != O.Key.size())
      return Key.size() < O.Key.size();
    for (size_t I = 0; I != Key.size(); ++I)
      if (Key[I].Bits != O.Key[I].Bits)
        return Key[I].Bits < O.Key[I].Bits;
    return false;
  }
};

/// One queued specialization request. Dispatch metadata rides along so the
/// worker can rebuild the specializer's inputs without re-decoding.
struct SpecJob {
  JobKey Id;
  TenantState *View = nullptr; ///< the view of tenant Id.Tenant; publishes
  uint32_t RegionOrd = 0;
  uint32_t PromoId = 0;
  std::vector<Word> BakedVals; ///< site baked values ({} for native entries)
  std::vector<Word> KeyVals;   ///< promoted registers' values, KeyRegs order
  std::promise<std::shared_ptr<CacheRecord>> Result;
  std::shared_future<std::shared_ptr<CacheRecord>> Future;

  SpecJob() { Future = Result.get_future().share(); }
};

/// Bounded MPMC queue plus the in-flight table. The table owns jobs from
/// creation until the worker fulfills the promise.
class JobQueue {
public:
  explicit JobQueue(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// Returns the in-flight job for \p Id, creating (and enqueuing) one if
  /// absent. \p Created reports which happened. Blocks while the queue is
  /// full (backpressure) unless the queue is already shut down, in which
  /// case it returns null.
  std::shared_ptr<SpecJob> submit(std::unique_ptr<SpecJob> Job,
                                  bool &Created);

  /// Worker side: blocks for the next job; null means shut down and
  /// drained.
  std::shared_ptr<SpecJob> pop();

  /// Marks \p Id done and drops it from the in-flight table. The caller
  /// must have fulfilled the job's promise first (joiners wake on the
  /// future, not the table).
  void finish(const JobKey &Id);

  /// Wakes everyone; pop() returns null once the queue drains.
  void shutdown();

  /// Jobs created but not yet finished (queued or being specialized).
  size_t pending() const;

private:
  mutable std::mutex Mutex;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::deque<std::shared_ptr<SpecJob>> Ready;
  std::map<JobKey, std::shared_ptr<SpecJob>> InFlight;
  size_t Capacity;
  bool Down = false;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SPECJOB_H
