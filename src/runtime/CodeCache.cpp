//===- runtime/CodeCache.cpp -------------------------------------------------------===//

#include "runtime/CodeCache.h"

#include "runtime/RegionExec.h"

#include <utility>

namespace dyc {
namespace runtime {

namespace {

/// Prime capacities, each the largest prime below a power of two, so the
/// double-hash step (always smaller than the capacity) walks a full cycle.
const size_t PrimeCaps[] = {
    13,        31,        61,        127,        251,        509,
    1021,      2039,      4093,      8191,       16381,      32749,
    65521,     131071,    262139,    524287,     1048573,    2097143,
    4194301,   8388593,   16777213,  33554393,   67108859,   134217689,
    268435399, 536870909, 1073741789, 2147483647, 4294967291u};

/// The smallest capacity that holds \p N entries at no more than half
/// load. Chosen from the live entries, so a table that fills with
/// tombstones is rebuilt at its own size instead of growing without bound;
/// without erasure it is the next capacity up at every growth point.
size_t capacityFor(size_t N) {
  for (size_t P : PrimeCaps)
    if (P >= 2 * N)
      return P;
  fatal("dispatch cache: too many entries");
}

uint64_t secondaryHash(uint64_t H) {
  // A distinct mix so the step is independent of the home slot.
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  return H;
}

constexpr size_t NoSlot = ~size_t(0);

/// What an erased slot points to, never read. The slot holds a non-owning
/// pointer to it (the aliasing constructor over an empty owner), so a slot
/// is one shared_ptr and copying a table copies tombstones without
/// touching a reference count.
SpecEntry TombstoneSentinel;

bool isTombstone(const std::shared_ptr<SpecEntry> &S) {
  return S.get() == &TombstoneSentinel;
}

} // namespace

bool CodeCache::hashed(WordSpan Key) const {
  if (Policy == ir::CachePolicy::CacheAll)
    return true;
  if (Policy != ir::CachePolicy::CacheIndexed)
    return false;
  assert(IndexPos < Key.size() && "indexed cache needs its index key");
  return Key[IndexPos].Bits >= MaxIndexedKey;
}

size_t CodeCache::slotOf(WordSpan Key, unsigned &Probes) const {
  // An unallocated table probes like a fresh one: one empty slot.
  Probes = 1;
  if (Table.empty())
    return NoSlot;
  uint64_t H = hashWords(Key);
  size_t Cap = Table.size();
  size_t Idx = H % Cap;
  size_t Step = 1 + secondaryHash(H) % (Cap - 1);
  for (size_t I = 0; I != Cap; ++I, Idx = (Idx + Step) % Cap) {
    Probes = static_cast<unsigned>(I + 1);
    const Slot &S = Table[Idx];
    if (!S)
      return NoSlot;
    if (!isTombstone(S) && S->Hash == H && WordSpan(S->Key) == Key)
      return Idx;
  }
  return NoSlot;
}

const std::shared_ptr<SpecEntry> *CodeCache::resident(WordSpan Key,
                                                      unsigned &Probes) const {
  Probes = 0;
  switch (Policy) {
  case ir::CachePolicy::CacheAll:
    break;
  case ir::CachePolicy::CacheOne:
    return One && WordSpan(One->Key) == Key ? &One : nullptr;
  case ir::CachePolicy::CacheOneUnchecked:
    // A resident entry is used without comparing keys.
    return &One;
  case ir::CachePolicy::CacheIndexed: {
    if (hashed(Key))
      break; // out-of-range index: the checked hash path, cache_all cost
    uint64_t Idx = Key[IndexPos].Bits;
    return Idx < Indexed.size() ? &Indexed[Idx] : nullptr;
  }
  }
  size_t I = slotOf(Key, Probes);
  return I == NoSlot ? nullptr : &Table[I];
}

CacheResult CodeCache::lookup(WordSpan Key) const {
  CacheResult R;
  if (const std::shared_ptr<SpecEntry> *E = resident(Key, R.Probes))
    R.Entry = E->get();
  return R;
}

std::shared_ptr<SpecEntry> CodeCache::find(WordSpan Key) const {
  unsigned Probes = 0;
  const std::shared_ptr<SpecEntry> *E = resident(Key, Probes);
  return E ? *E : nullptr;
}

size_t CodeCache::entries() const {
  switch (Policy) {
  case ir::CachePolicy::CacheAll:
    return Live;
  case ir::CachePolicy::CacheIndexed:
    return IndexedCount + Live;
  default:
    return One ? 1 : 0;
  }
}

std::shared_ptr<SpecEntry> CodeCache::insert(std::shared_ptr<SpecEntry> E) {
  assert(E->Hash == hashWords(E->Key) && "entry hash must cover its key");
  ++Epoch;
  if (hashed(E->Key))
    return tableInsert(std::move(E));
  if (Policy != ir::CachePolicy::CacheIndexed)
    return std::exchange(One, std::move(E));
  uint64_t Idx = E->Key[IndexPos].Bits;
  if (Idx >= Indexed.size())
    Indexed.resize(Idx + 1);
  if (!Indexed[Idx])
    ++IndexedCount;
  return std::exchange(Indexed[Idx], std::move(E));
}

void CodeCache::erase(WordSpan Key) {
  ++Epoch;
  if (hashed(Key)) {
    unsigned Probes = 0;
    size_t I = slotOf(Key, Probes);
    if (I != NoSlot) {
      Table[I] = Slot(Slot(), &TombstoneSentinel);
      --Live;
      ++Tombstones;
    }
    return;
  }
  if (Policy != ir::CachePolicy::CacheIndexed) {
    if (One && WordSpan(One->Key) == Key)
      One.reset();
    return;
  }
  uint64_t Idx = Key[IndexPos].Bits;
  if (Idx < Indexed.size() && Indexed[Idx]) {
    Indexed[Idx].reset();
    --IndexedCount;
  }
}

std::shared_ptr<SpecEntry>
CodeCache::tableInsert(std::shared_ptr<SpecEntry> E) {
  if (Table.empty())
    Table.resize(PrimeCaps[0]);
  // Tombstones count toward the load factor: they lengthen probe chains
  // exactly like live entries until a rehash drops them.
  if ((Live + Tombstones + 1) * 3 > Table.size() * 2)
    rehash(capacityFor(Live + 1));
  return place(std::move(E));
}

std::shared_ptr<SpecEntry> CodeCache::place(std::shared_ptr<SpecEntry> E) {
  const uint64_t H = E->Hash;
  const size_t Cap = Table.size();
  size_t Idx = H % Cap;
  const size_t Step = 1 + secondaryHash(H) % (Cap - 1);
  Slot *Free = nullptr; // the first tombstone, reused if the key is absent
  for (size_t I = 0; I != Cap; ++I, Idx = (Idx + Step) % Cap) {
    Slot &S = Table[Idx];
    if (S && !isTombstone(S)) {
      if (S->Hash == H && S->Key == E->Key)
        return std::exchange(S, std::move(E));
      continue;
    }
    if (!Free)
      Free = &S;
    if (!S)
      break;
  }
  if (!Free)
    fatal("dispatch cache: table full despite its load bound");
  if (*Free)
    --Tombstones;
  *Free = std::move(E);
  ++Live;
  return nullptr;
}

void CodeCache::rehash(size_t Cap) {
  std::vector<Slot> Old = std::exchange(Table, std::vector<Slot>(Cap));
  Live = Tombstones = 0;
  for (Slot &S : Old)
    if (S && !isTombstone(S))
      place(std::move(S));
}

} // namespace runtime
} // namespace dyc
