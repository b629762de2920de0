//===- vm/ICache.h - L1 instruction-cache simulator ------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative L1 instruction cache with LRU replacement. The paper's
/// pnmconvol result hinges on instruction-cache footprint: without dynamic
/// dead-assignment elimination, the generated code exceeded the L1 I-cache
/// by a factor of 2.7 and ran *slower* than static code (section 4.4.4).
/// Default geometry follows the DEC Alpha 21164 L1 I-cache: 8KB
/// direct-mapped with 32-byte blocks.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_ICACHE_H
#define DYC_VM_ICACHE_H

#include <cstdint>
#include <vector>

namespace dyc {
namespace vm {

/// Geometry of the simulated instruction cache.
struct ICacheConfig {
  uint32_t SizeBytes = 8 * 1024;
  uint32_t BlockBytes = 32;
  uint32_t Assoc = 1;
  bool Enabled = true;

  /// Sets in this geometry (ICache's constructor requires a power of two).
  uint32_t numSets() const { return SizeBytes / BlockBytes / Assoc; }

  bool operator==(const ICacheConfig &) const = default;
};

/// One I-cache line segment of a translated basic block: \p Count
/// consecutive instruction fetches that all land on the line with set
/// index \p Set and tag \p Tag. The translation splits each line's
/// address once (lineSegOf); in a direct-mapped cache ICache::chargeBlock
/// then charges the whole segment with one compare.
struct DecodedLineSeg {
  uint64_t Tag = 0;
  uint32_t Set = 0;
  uint32_t Count = 0;
};
static_assert(sizeof(DecodedLineSeg) == 16, "two segments per 32 bytes");

/// The one-fetch segment of \p Addr under \p Cfg: the same set and tag
/// split that ICache::access makes on every fetch.
inline DecodedLineSeg lineSegOf(const ICacheConfig &Cfg, uint64_t Addr) {
  uint64_t Block = Addr / Cfg.BlockBytes;
  uint32_t Sets = Cfg.numSets();
  return {Block >> __builtin_ctz(Sets),
          static_cast<uint32_t>(Block & (Sets - 1)), 1};
}

/// LRU set-associative instruction cache. The legacy engine charges each
/// fetch through access(); the predecoded engine charges each basic block
/// through chargeBlock(), over line segments its translation split once.
class ICache {
public:
  explicit ICache(const ICacheConfig &Config = ICacheConfig());

  /// Simulates a fetch from \p Addr. Returns true on hit.
  bool access(uint64_t Addr);

  /// Charges the fetches of one translated basic block: the line
  /// segments [\p First, \p Last), \p Instrs fetches in all, in fetch
  /// order. The counters, the resident lines and the LRU order end
  /// exactly as \p Instrs access() calls would leave them: a segment's
  /// first fetch may miss, and the rest hit the line it just touched.
  /// Returns the number of segments whose first fetch missed; the
  /// predecoded engine charges the block's execution cost plus that many
  /// miss penalties in one step. Only the direct-mapped geometry has a
  /// fast path; associative and disabled caches replay the access() calls.
  uint32_t chargeBlock(const DecodedLineSeg *First, const DecodedLineSeg *Last,
                       uint32_t Instrs) {
    if (Cfg.Assoc != 1 || !Cfg.Enabled) [[unlikely]]
      return chargeByFetch(First, Last);
    // Direct-mapped: the set's one line is always the victim and no
    // recency is ever read, so a line costs one tag-and-epoch compare
    // and the LRU clock stays untouched.
    uint32_t Missed = 0;
    for (const DecodedLineSeg *S = First; S != Last; ++S) {
      Line &L = Lines[S->Set];
      if (!resident(L) || L.Tag != S->Tag) {
        L.Valid = true;
        L.Epoch = Epoch;
        L.Tag = S->Tag;
        ++Missed;
      }
    }
    Hits += Instrs - Missed;
    Misses += Missed;
    return Missed;
  }

  /// Invalidates every line (flushed after dynamic code generation; the
  /// coherence cost itself is part of the specializer's emit cost).
  void flush();

  /// Invalidates only the lines holding blocks of [Addr, Addr + Bytes).
  /// Other resident lines are untouched. Used by the SpecServer to model
  /// an adopted (deduplicated) chain as freshly compiled code: the
  /// adopting client must fetch it cold, exactly as it would a chain a
  /// dedicated server had just emitted at a never-used address.
  void invalidateRange(uint64_t Addr, uint64_t Bytes);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t accesses() const { return Hits + Misses; }
  const ICacheConfig &config() const { return Cfg; }

private:
  /// A line is resident iff Valid and its Epoch matches the cache's
  /// current Epoch; flush() bumps the epoch instead of sweeping every
  /// line, so the specializer's per-chain coherence flush is O(1) host
  /// work. Pure representation change — hit/miss behavior is identical
  /// to clearing every Valid bit.
  struct Line {
    uint64_t Tag = 0;
    uint64_t LastUse = 0;
    uint64_t Epoch = 0;
    bool Valid = false;
  };

  bool resident(const Line &L) const {
    return L.Valid && L.Epoch == Epoch;
  }

  /// chargeBlock for associative and disabled geometries: access() once
  /// per fetch, at the address of each segment's line.
  uint32_t chargeByFetch(const DecodedLineSeg *First,
                         const DecodedLineSeg *Last);

  ICacheConfig Cfg;
  uint32_t NumSets;
  std::vector<Line> Lines; // NumSets * Assoc
  uint64_t Clock = 0;
  uint64_t Epoch = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace vm
} // namespace dyc

#endif // DYC_VM_ICACHE_H
