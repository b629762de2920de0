//===- server/ShardedCache.h - Lock-free-read dispatch caches --------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SpecServer's replacement for the runtime's per-promotion-point
/// CodeCaches. Each (region, promotion point) pair is one *point* holding
/// an immutable Snapshot published through an atomic pointer:
///
///  * Readers (client dispatches) load the snapshot with acquire ordering
///    and probe it without taking any lock. All four DyC cache policies
///    are mirrored: double-hashed cache_all, checked/unchecked one-slot,
///    and direct-indexed with a checked hash overflow for keys at or above
///    the indexed range.
///  * Writers (specialization workers, the capacity manager) serialize on
///    striped mutexes, rebuild the point's snapshot from its record list,
///    and publish with release ordering.
///
/// Replaced snapshots go to a per-point graveyard instead of being freed:
/// a reader may still be probing one. trimGraveyard() frees them and is
/// only called by the server at quiescence (no dispatch in flight), the
/// same discipline RCU calls a grace period.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_SHARDEDCACHE_H
#define DYC_SERVER_SHARDEDCACHE_H

#include "runtime/RegionExec.h"
#include "support/Support.h"

#include <array>
#include <atomic>
#include <cstdint>
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
using ChainRegistry = runtime::ChainRegistry;
using EntryStats = runtime::EntryStats;
using CacheRecord = runtime::SpecEntry;
using CapacityBudget = runtime::ChainBudget;

/// Immutable probe structure for one point. Built writer-side, read
/// lock-free.
struct CacheSnapshot {
  ir::CachePolicy Policy = ir::CachePolicy::CacheAll;
  uint32_t IndexPos = 0;
  /// cache_all and cache_indexed overflow: open-addressed double-hash
  /// table (power-of-two capacity, empty slots null).
  std::vector<std::shared_ptr<CacheRecord>> Table;
  /// One-slot policies: the resident entry.
  std::shared_ptr<CacheRecord> One;
  /// cache_indexed: direct array over the index key word.
  std::vector<std::shared_ptr<CacheRecord>> Indexed;
};

/// All points of one server, with striped writer locks.
class ShardedCache {
public:
  /// Registers the next point. Not thread-safe: call only during server
  /// construction, before clients exist.
  size_t addPoint(ir::CachePolicy Policy, uint32_t IndexPos);

  struct Lookup {
    const CacheRecord *Rec = nullptr;
    unsigned Probes = 1; ///< hash probes (cache_all cost model input)
  };

  /// Lock-free probe. The returned record stays valid while the caller is
  /// inside a dispatch (snapshots are only freed at quiescence) and its
  /// Chain stays valid as long as the caller copies the shared_ptr or the
  /// chain registry holds it. The key is a view — the hit path composes it
  /// in per-thread scratch without allocating.
  Lookup lookup(size_t Point, WordSpan Key) const;
  Lookup lookup(size_t Point, const std::vector<Word> &Key) const {
    return lookup(Point, WordSpan(Key));
  }

  /// Writer-side probe under the stripe lock, with the point's policy
  /// semantics (an unchecked one-slot point matches any resident entry).
  /// Used by workers to recheck for a concurrent publication before
  /// specializing. Returns shared ownership, unlike lookup().
  std::shared_ptr<CacheRecord> findRecord(size_t Point, WordSpan Key) const;
  std::shared_ptr<CacheRecord>
  findRecord(size_t Point, const std::vector<Word> &Key) const {
    return findRecord(Point, WordSpan(Key));
  }

  /// Inserts \p Rec (whose Point/Key/Hash must be set) and republishes.
  /// Returns records displaced by one-slot replacement so the caller can
  /// mark their chains evicted.
  std::vector<std::shared_ptr<CacheRecord>>
  insert(std::shared_ptr<CacheRecord> Rec);

  /// Removes \p Rec from its point (capacity eviction) and republishes.
  /// No-op if the record was already displaced.
  void erase(const CacheRecord *Rec);

  /// Frees retired snapshots. The caller must guarantee no reader is
  /// inside lookup() (the server checks its in-flight dispatch count).
  /// Returns the number freed.
  size_t trimGraveyard();

  size_t retiredSnapshots() const;

  static uint64_t hashKey(WordSpan Key) {
    return hashWords(Key.Data, Key.Count);
  }
  static uint64_t hashKey(const std::vector<Word> &Key) {
    return hashWords(Key.data(), Key.size());
  }

private:
  struct PointCache {
    ir::CachePolicy Policy = ir::CachePolicy::CacheAll;
    uint32_t IndexPos = 0;
    std::atomic<const CacheSnapshot *> Current{nullptr};
    // Writer-side, guarded by the point's stripe mutex:
    std::shared_ptr<const CacheSnapshot> Owner; ///< keeps Current alive
    std::vector<std::shared_ptr<const CacheSnapshot>> Retired;
    std::vector<std::shared_ptr<CacheRecord>> Records;
  };

  static constexpr size_t NumStripes = 16;

  std::mutex &stripeFor(size_t Point) const {
    return Stripes[Point % NumStripes];
  }

  /// Rebuilds and publishes \p P's snapshot; retires the previous one.
  void republish(PointCache &P);

  std::deque<PointCache> Points; ///< deque: PointCache is not movable
  mutable std::array<std::mutex, NumStripes> Stripes;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SHARDEDCACHE_H
