//===- server/ChainStore.h - Content-addressed cross-tenant chain store -----------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant SpecServer's dedup layer. Every published
/// specialization is content-addressed by a hash of (region content hash,
/// promotion point, full cache key, OptFlags fingerprint): two tenants
/// missing on the same key at the same point produce one generating-
/// extension run and one CodeChain — the second publication *adopts* the
/// stored chain into its own cache view instead of compiling.
///
/// Ownership is refcounted per publication: each tenant cache entry that
/// references a stored chain holds one publish reference, dropped when
/// the tenant's CLOCK book evicts (or its one-slot cache displaces) the
/// entry. The last release removes the entry from the store and returns
/// the chain so the server can retire it (mark it evicted, release its
/// shared translation) through the existing eviction safe point —
/// collection still waits for active executors to drain, exactly as for
/// single-tenant chains.
///
/// Concurrency: every mutation happens under the server's specialization
/// mutex (publication, eviction, and warm-start load are all serialized
/// there already), so the store takes no lock of its own; only the
/// resident-count gauge is atomic, because stats() reads it from
/// arbitrary threads.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_CHAINSTORE_H
#define DYC_SERVER_CHAINSTORE_H

#include "server/ShardedCache.h"

#include <atomic>
#include <list>
#include <unordered_map>
#include <vector>

namespace dyc {
namespace server {

/// One deduplicated compiled chain, shared by every tenant that adopted it.
struct StoredChain {
  uint64_t DedupKey = 0; ///< content address (see ChainStore::dedupKey)
  uint32_t Ord = 0;      ///< region ordinal
  uint32_t PromoId = 0;  ///< promotion point within the region
  std::vector<Word> Key; ///< full cache key, verified on every lookup
  uint32_t EntryPC = 0;  ///< entry offset within Chain->CO
  std::shared_ptr<CodeChain> Chain;
  /// Tenant cache entries referencing this chain. Mutated only under the
  /// server's specialization mutex.
  uint32_t Refs = 0;
  /// True for chains deserialized from a warm-start file; their first
  /// adoptions are the restart's payoff and are counted as WarmHits.
  bool WarmLoaded = false;
};

/// The store: DedupKey -> StoredChain, with a reverse index from the
/// chain object for refcount release at eviction time.
class ChainStore {
public:
  /// The content address: region content hash, promotion id, the full
  /// cache key (baked values + promoted values), and the OptFlags
  /// fingerprint, FNV-chained. Collisions are survivable — find() verifies
  /// (Ord, PromoId, Key) exactly — but the full-width hash makes the
  /// bucket lists effectively singleton.
  static uint64_t dedupKey(uint64_t RegionHash, uint32_t PromoId,
                           WordSpan Key, uint64_t FlagsFingerprint) {
    uint64_t Seed = RegionHash;
    Seed = (Seed ^ PromoId) * 1099511628211ull;
    Seed = (Seed ^ FlagsFingerprint) * 1099511628211ull;
    return hashWords(Key, Seed);
  }

  /// Exact-match lookup; null when absent. The pointer is valid until the
  /// next mutation under the same serialization.
  StoredChain *find(uint64_t DedupKey, uint32_t Ord, uint32_t PromoId,
                    WordSpan Key);

  /// Registers a chain under its content address. Returns the stored
  /// entry. The caller has verified no equal entry exists.
  StoredChain &insert(StoredChain SC);

  /// Drops one publish reference from the entry owning \p Chain. When the
  /// last reference drops, removes the entry and returns the chain so the
  /// caller retires it; otherwise (or for chains the store never owned —
  /// single-tenant code paths) returns null.
  std::shared_ptr<CodeChain> release(const CodeChain *Chain);

  /// Resident chains (gauge; safe from any thread).
  size_t size() const { return Count.load(std::memory_order_relaxed); }

  /// Entries in chain-creation order — the warm-start serialization
  /// order, chosen so a reload reproduces every chain's BaseAddr.
  std::vector<const StoredChain *> byOrdinal() const;

private:
  std::unordered_map<uint64_t, std::list<StoredChain>> Buckets;
  std::unordered_map<const CodeChain *, uint64_t> ByChain;
  std::atomic<size_t> Count{0};
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_CHAINSTORE_H
