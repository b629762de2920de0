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

  bool operator==(const ICacheConfig &) const = default;
};

/// LRU set-associative instruction cache.
class ICache {
public:
  explicit ICache(const ICacheConfig &Config = ICacheConfig());

  /// Simulates a fetch from \p Addr. Returns true on hit.
  bool access(uint64_t Addr);

  /// Simulates \p Count back-to-back fetches from the single cache line
  /// holding \p Addr, bit-identically to \p Count access(Addr) calls: the
  /// first fetch may miss; the rest are guaranteed hits (the line was just
  /// touched and nothing intervened), so they are folded into one counter
  /// update plus an LRU refresh. The predecoded engine uses this to charge
  /// a basic block's fetches per line segment instead of per instruction.
  /// Returns true if the first fetch hit.
  bool accessRun(uint64_t Addr, uint32_t Count);

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

  void resetStats() { Hits = Misses = 0; }

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
