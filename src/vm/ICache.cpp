//===- vm/ICache.cpp -------------------------------------------------------===//

#include "vm/ICache.h"

#include "support/Support.h"

namespace dyc {
namespace vm {

ICache::ICache(const ICacheConfig &Config) : Cfg(Config) {
  if (Cfg.BlockBytes == 0 || (Cfg.BlockBytes & (Cfg.BlockBytes - 1)))
    fatal("I-cache block size must be a power of two");
  if (Cfg.Assoc == 0)
    fatal("I-cache associativity must be >= 1");
  uint32_t NumBlocks = Cfg.SizeBytes / Cfg.BlockBytes;
  if (NumBlocks == 0 || NumBlocks % Cfg.Assoc != 0)
    fatal("I-cache geometry does not divide evenly into sets");
  NumSets = Cfg.numSets();
  if (NumSets & (NumSets - 1))
    fatal("I-cache set count must be a power of two");
  Lines.resize(static_cast<size_t>(NumSets) * Cfg.Assoc);
}

bool ICache::access(uint64_t Addr) {
  if (!Cfg.Enabled) {
    ++Hits;
    return true;
  }
  ++Clock;
  uint64_t Block = Addr / Cfg.BlockBytes;
  uint32_t Set = static_cast<uint32_t>(Block & (NumSets - 1));
  uint64_t Tag = Block >> __builtin_ctz(NumSets);
  Line *SetBase = &Lines[static_cast<size_t>(Set) * Cfg.Assoc];

  Line *Victim = nullptr;
  bool VictimLive = false;
  for (uint32_t W = 0; W != Cfg.Assoc; ++W) {
    Line &L = SetBase[W];
    bool Live = resident(L);
    if (Live && L.Tag == Tag) {
      L.LastUse = Clock;
      ++Hits;
      return true;
    }
    if (!Victim || !Live || (VictimLive && L.LastUse < Victim->LastUse)) {
      Victim = &L;
      VictimLive = Live;
    }
  }
  Victim->Valid = true;
  Victim->Epoch = Epoch;
  Victim->Tag = Tag;
  Victim->LastUse = Clock;
  ++Misses;
  return false;
}

uint32_t ICache::chargeByFetch(const DecodedLineSeg *First,
                               const DecodedLineSeg *Last) {
  uint64_t MissesBefore = Misses;
  uint32_t Shift = static_cast<uint32_t>(__builtin_ctz(NumSets));
  for (const DecodedLineSeg *S = First; S != Last; ++S) {
    uint64_t Addr = ((S->Tag << Shift) | S->Set) * Cfg.BlockBytes;
    for (uint32_t F = 0; F != S->Count; ++F)
      access(Addr);
  }
  // Only a segment's first fetch can miss: the rest find the line it
  // just touched.
  return static_cast<uint32_t>(Misses - MissesBefore);
}

void ICache::flush() { ++Epoch; }

void ICache::invalidateRange(uint64_t Addr, uint64_t Bytes) {
  if (!Cfg.Enabled || Bytes == 0)
    return;
  uint64_t FirstBlock = Addr / Cfg.BlockBytes;
  uint64_t LastBlock = (Addr + Bytes - 1) / Cfg.BlockBytes;
  uint32_t Shift = static_cast<uint32_t>(__builtin_ctz(NumSets));
  for (size_t I = 0; I != Lines.size(); ++I) {
    Line &L = Lines[I];
    if (!resident(L))
      continue;
    uint32_t Set = static_cast<uint32_t>(I / Cfg.Assoc);
    uint64_t Block = (L.Tag << Shift) | Set;
    if (Block >= FirstBlock && Block <= LastBlock)
      L.Valid = false;
  }
}

} // namespace vm
} // namespace dyc
