//===- server/ShardedCache.h - Lock-free-read dispatch caches --------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SpecServer's publication layer over the runtime's dispatch cache.
/// Each (region, promotion point) pair is one *point* holding an immutable
/// runtime::CodeCache published through an atomic pointer:
///
///  * Readers (client dispatches) load the current cache with acquire
///    ordering and probe it without taking any lock. The cache is the
///    inline runtime's own, so every policy, and every probe count the
///    dispatch cost model charges, is the inline front end's.
///  * Writers (specialization workers, the capacity manager) serialize on
///    striped mutexes, copy the point's current cache, apply one insert or
///    erase to the copy, and publish it with release ordering — so the
///    published table goes through exactly the history an inline cache
///    fed the same operations would, tombstones included.
///
/// Replaced caches go to a per-point graveyard instead of being freed: a
/// reader may still be probing one. trimGraveyard() frees them and is
/// only called by the server at quiescence (no dispatch in flight), the
/// same discipline RCU calls a grace period.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_SHARDEDCACHE_H
#define DYC_SERVER_SHARDEDCACHE_H

#include "runtime/CodeCache.h"
#include "runtime/RegionExec.h"

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace dyc {
namespace server {

// The server caches the shared core's published-specialization types
// directly — one representation of generated code everywhere. The server's
// historical names are kept as aliases.
using CodeChain = runtime::CodeChain;
using CacheRecord = runtime::SpecEntry;
using CapacityBudget = runtime::ChainBudget;

/// All points of one tenant view, with striped writer locks.
class ShardedCache {
public:
  /// Registers the next point. Not thread-safe: call only during server
  /// construction, before clients exist.
  size_t addPoint(ir::CachePolicy Policy, uint32_t IndexPos);

  /// Lock-free probe of the point's current cache. The returned entry
  /// stays valid while the caller is inside a dispatch (replaced caches
  /// are only freed at quiescence) and its Chain stays valid as long as
  /// the caller copies the shared_ptr or the chain registry holds it.
  runtime::CacheResult lookup(size_t Point, WordSpan Key) const {
    assert(Point < Points.size() && "bad cache point");
    return Points[Point].Current.load(std::memory_order_acquire)->lookup(Key);
  }

  /// Writer-side probe of the current cache under the stripe lock, with
  /// shared ownership, unlike lookup(). Used by workers to recheck for a
  /// concurrent publication before specializing.
  std::shared_ptr<CacheRecord> findRecord(size_t Point, WordSpan Key) const;

  /// Publishes \p Rec (whose Point/Key/Hash must be set) in a copy of its
  /// point's cache. Returns the record it displaced (one-slot or indexed
  /// same-slot replacement), or null, so the caller can retire it.
  std::shared_ptr<CacheRecord> insert(std::shared_ptr<CacheRecord> Rec);

  /// Publishes a copy of \p Rec's point with \p Rec's key erased (capacity
  /// eviction of a resident record).
  void erase(const CacheRecord &Rec);

  /// Frees retired caches. The caller must guarantee no reader is inside
  /// lookup() (the server checks its in-flight dispatch count). Returns
  /// the number freed.
  size_t trimGraveyard();

  size_t retiredSnapshots() const;

private:
  struct PointCache {
    PointCache(ir::CachePolicy Policy, uint32_t IndexPos)
        : Empty(Policy, IndexPos), Current(&Empty) {}
    const runtime::CodeCache Empty; ///< current until the first publication
    std::atomic<const runtime::CodeCache *> Current;
    // Writer-side, guarded by the point's stripe mutex:
    std::unique_ptr<const runtime::CodeCache> Owner; ///< keeps Current alive
    std::vector<std::unique_ptr<const runtime::CodeCache>> Retired;
  };

  static constexpr size_t NumStripes = 16;

  std::mutex &stripeFor(size_t Point) const {
    return Stripes[Point % NumStripes];
  }

  /// A copy of \p P's current cache, for the caller to edit and publish.
  /// The caller holds the point's stripe lock.
  static std::unique_ptr<runtime::CodeCache> copyOf(const PointCache &P) {
    return std::make_unique<runtime::CodeCache>(
        *P.Current.load(std::memory_order_relaxed));
  }
  /// Makes \p Next \p P's current cache and retires the previous one.
  /// The caller holds the point's stripe lock.
  void publish(PointCache &P, std::unique_ptr<const runtime::CodeCache> Next);

  std::deque<PointCache> Points; ///< deque: PointCache is not movable
  mutable std::array<std::mutex, NumStripes> Stripes;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SHARDEDCACHE_H
