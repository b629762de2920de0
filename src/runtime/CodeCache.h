//===- runtime/CodeCache.h - Dynamic-code caches ---------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-promotion-point caches of dynamically generated code (paper
/// section 2.2.3): the one dispatch cache of both front ends. A cache maps
/// the tuple of static-variable values at a promotion point to a published
/// SpecEntry (RegionExec.h), whose Key and Hash the core fills. Four
/// policies:
///
///  * cache_all (default, safe): a double-hashed table [Cormen, Leiserson,
///    Rivest] (~90 cycles per dispatch, rising with the probe count).
///  * cache_one: a single entry whose key is checked; a mismatch evicts
///    and respecializes.
///  * cache_one_unchecked: a single entry returned *without* checking
///    (load + indirect jump, ~10 cycles) — fast but a potentially unsafe
///    programmer assertion, exactly as in DyC.
///  * cache_indexed: the section-3.1 extension — the last key word
///    directly indexes an array (valid for small value ranges); other key
///    words are unchecked invariants. This is what makes byte-keyed
///    regions (decompressors, grep) profitable. Keys at or above the
///    supported index range fall back to the checked double-hash table
///    instead of aborting, so an occasional out-of-range value degrades to
///    cache_all cost rather than killing the process.
///
/// The table's probe rule is the paper's cost model input: a lookup starts
/// at Hash % Capacity and steps by an odd-mixed second hash over a prime
/// capacity, so every slot is reachable; erasure leaves a tombstone that
/// later probes walk through. The number of slots a lookup inspects is
/// what the cache_all dispatch charge (section 4.4.3) counts.
///
/// A cache keeps no counters: lookup writes nothing, and a copy is a plain
/// value. The inline runtime mutates its caches in place; the SpecServer
/// publishes a mutated copy per insert or erase (server/ShardedCache.h),
/// so the server's table goes through exactly the inline table's history,
/// tombstones included, and the same keys cost the same probes.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_CODECACHE_H
#define DYC_RUNTIME_CODECACHE_H

#include "ir/Instruction.h"

#include <memory>
#include <vector>

namespace dyc {
namespace runtime {

struct SpecEntry;

/// Outcome of a cache probe.
struct CacheResult {
  const SpecEntry *Entry = nullptr; ///< the published entry; null on a miss
  unsigned Probes = 0; ///< table slots inspected (hashed lookups only)
};

/// One promotion point's cache.
class CodeCache {
public:
  explicit CodeCache(ir::CachePolicy Policy = ir::CachePolicy::CacheAll,
                     uint32_t IndexPos = 0)
      : Policy(Policy), IndexPos(IndexPos) {}

  ir::CachePolicy policy() const { return Policy; }

  /// Which key word cache_indexed uses as the direct-array index.
  uint32_t indexPos() const { return IndexPos; }

  /// Probes for \p Key. Under cache_one_unchecked, any resident entry hits
  /// regardless of key — the unsafety is the point.
  CacheResult lookup(WordSpan Key) const;

  /// lookup's entry with shared ownership (null on a miss), for a caller
  /// that must keep it alive past a concurrent unpublication.
  std::shared_ptr<SpecEntry> find(WordSpan Key) const;

  /// Publishes \p E under E->Key; E->Hash must be hashWords(E->Key).
  /// Returns the entry it displaced, or null: the resident entry under the
  /// one-slot policies, the entry of the same key in the table, or the
  /// entry of the same index word in cache_indexed's array.
  std::shared_ptr<SpecEntry> insert(std::shared_ptr<SpecEntry> E);

  /// Removes \p Key so the next lookup misses (capacity eviction
  /// unpublishing an entry). Under the one-slot policies the resident entry
  /// is dropped only if its key matches.
  void erase(WordSpan Key);

  /// Mutation epoch: bumped by every insert and erase — the only
  /// operations that can change which entry a key maps to or how many
  /// probes a table lookup takes. The run-time's per-site inline caches
  /// memoize (entry, probe count) against this; an unchanged epoch proves
  /// both are still exactly what a real lookup would produce.
  uint64_t epoch() const { return Epoch; }

  size_t entries() const;

  /// Slots of the hash table (0 until its first insert).
  size_t tableCapacity() const { return Table.size(); }

  /// cache_indexed keys below this index the direct array; larger keys use
  /// the double-hash fallback path.
  static constexpr size_t MaxIndexedKey = 65536;

private:
  /// A table slot: null if never used, a live entry, or the tombstone an
  /// erase leaves, which probes continue through (CodeCache.cpp).
  using Slot = std::shared_ptr<SpecEntry>;

  /// Whether \p Key lives in the hash table rather than a direct slot.
  bool hashed(WordSpan Key) const;
  /// The index of the table slot holding \p Key, or ~0; \p Probes
  /// receives the slots inspected.
  size_t slotOf(WordSpan Key, unsigned &Probes) const;
  /// Where \p Key's entry is stored under the policy (a null pointer, or a
  /// pointer to null, if absent); \p Probes as for slotOf, 0 off-table.
  const std::shared_ptr<SpecEntry> *resident(WordSpan Key,
                                             unsigned &Probes) const;
  std::shared_ptr<SpecEntry> tableInsert(std::shared_ptr<SpecEntry> E);
  /// Stores \p E in its key's slot, or the first free one on its probe
  /// sequence; returns the entry of the same key it replaced, if any.
  std::shared_ptr<SpecEntry> place(std::shared_ptr<SpecEntry> E);
  /// Re-places the live entries into \p Cap slots, dropping tombstones.
  void rehash(size_t Cap);

  ir::CachePolicy Policy;
  uint32_t IndexPos;
  std::vector<Slot> Table; ///< cache_all, and cache_indexed overflow keys
  size_t Live = 0;         ///< occupied table slots
  size_t Tombstones = 0;   ///< deleted table slots
  std::shared_ptr<SpecEntry> One; ///< one-slot policies
  std::vector<std::shared_ptr<SpecEntry>> Indexed; ///< cache_indexed array
  size_t IndexedCount = 0;
  uint64_t Epoch = 0; ///< bumped on insert/erase (inline-cache validity)
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_CODECACHE_H
