//===- server/ShardedCache.cpp -----------------------------------------------------===//

#include "server/ShardedCache.h"

#include "runtime/CodeCache.h" // CodeCache::MaxIndexedKey (shared limit)

#include <algorithm>

namespace dyc {
namespace server {

namespace {

constexpr size_t MaxIndexedKey = runtime::CodeCache::MaxIndexedKey;

/// Probes the snapshot's double-hash table. The table is built at no more
/// than half load, so an empty slot always terminates the walk.
const CacheRecord *probeTable(const CacheSnapshot &S, WordSpan Key,
                              uint64_t Hash, unsigned &Probes) {
  Probes = 1;
  if (S.Table.empty())
    return nullptr;
  size_t Mask = S.Table.size() - 1;
  size_t H1 = static_cast<size_t>(Hash) & Mask;
  size_t H2 = static_cast<size_t>(Hash >> 32) | 1;
  for (size_t I = 0; I != S.Table.size(); ++I) {
    size_t Slot = (H1 + I * H2) & Mask;
    Probes = static_cast<unsigned>(I + 1);
    const CacheRecord *R = S.Table[Slot].get();
    if (!R)
      return nullptr;
    if (R->Hash == Hash && R->Key == Key)
      return R;
  }
  return nullptr;
}

/// Places \p Rec into an under-half-full open-addressed \p Table.
void placeInTable(std::vector<std::shared_ptr<CacheRecord>> &Table,
                  std::shared_ptr<CacheRecord> Rec) {
  size_t Mask = Table.size() - 1;
  size_t H1 = static_cast<size_t>(Rec->Hash) & Mask;
  size_t H2 = static_cast<size_t>(Rec->Hash >> 32) | 1;
  for (size_t I = 0; I != Table.size(); ++I) {
    size_t Slot = (H1 + I * H2) & Mask;
    if (!Table[Slot]) {
      Table[Slot] = std::move(Rec);
      return;
    }
  }
  fatal("sharded cache: snapshot table overfull");
}

size_t tableCapacityFor(size_t N) {
  size_t Cap = 8;
  while (Cap < 2 * N + 1)
    Cap <<= 1;
  return Cap;
}

bool indexInRange(const CacheRecord &R, uint32_t IndexPos) {
  return R.Key[IndexPos].Bits < MaxIndexedKey;
}

} // namespace

size_t ShardedCache::addPoint(ir::CachePolicy Policy, uint32_t IndexPos) {
  Points.emplace_back();
  Points.back().Policy = Policy;
  Points.back().IndexPos = IndexPos;
  return Points.size() - 1;
}

ShardedCache::Lookup ShardedCache::lookup(size_t Point, WordSpan Key) const {
  assert(Point < Points.size() && "bad cache point");
  const PointCache &P = Points[Point];
  const CacheSnapshot *S = P.Current.load(std::memory_order_acquire);
  Lookup L;
  if (!S)
    return L;
  switch (S->Policy) {
  case ir::CachePolicy::CacheAll:
    L.Rec = probeTable(*S, Key, hashKey(Key), L.Probes);
    return L;
  case ir::CachePolicy::CacheOne:
    if (S->One && S->One->Key == Key)
      L.Rec = S->One.get();
    return L;
  case ir::CachePolicy::CacheOneUnchecked:
    // Resident entry used without comparing keys — the documented
    // unsafety, preserved through the server.
    L.Rec = S->One.get();
    return L;
  case ir::CachePolicy::CacheIndexed: {
    assert(S->IndexPos < Key.size() && "indexed cache needs its index key");
    uint64_t Idx = Key[S->IndexPos].Bits;
    if (Idx >= MaxIndexedKey) {
      // Out-of-range index value: checked hash fallback, as inline.
      L.Rec = probeTable(*S, Key, hashKey(Key), L.Probes);
      return L;
    }
    if (Idx < S->Indexed.size())
      L.Rec = S->Indexed[Idx].get();
    return L;
  }
  }
  return L;
}

void ShardedCache::republish(PointCache &P) {
  auto S = std::make_shared<CacheSnapshot>();
  S->Policy = P.Policy;
  S->IndexPos = P.IndexPos;
  switch (P.Policy) {
  case ir::CachePolicy::CacheOne:
  case ir::CachePolicy::CacheOneUnchecked:
    assert(P.Records.size() <= 1 && "one-slot point holds multiple records");
    if (!P.Records.empty())
      S->One = P.Records.front();
    break;
  case ir::CachePolicy::CacheAll: {
    S->Table.resize(tableCapacityFor(P.Records.size()));
    for (const auto &R : P.Records)
      placeInTable(S->Table, R);
    break;
  }
  case ir::CachePolicy::CacheIndexed: {
    size_t Overflow = 0;
    for (const auto &R : P.Records) {
      if (indexInRange(*R, P.IndexPos)) {
        uint64_t Idx = R->Key[P.IndexPos].Bits;
        if (Idx >= S->Indexed.size())
          S->Indexed.resize(Idx + 1);
        S->Indexed[Idx] = R;
      } else {
        ++Overflow;
      }
    }
    if (Overflow) {
      S->Table.resize(tableCapacityFor(Overflow));
      for (const auto &R : P.Records)
        if (!indexInRange(*R, P.IndexPos))
          placeInTable(S->Table, R);
    }
    break;
  }
  }
  if (P.Owner)
    P.Retired.push_back(std::move(P.Owner));
  P.Owner = S;
  P.Current.store(S.get(), std::memory_order_release);
}

std::shared_ptr<CacheRecord>
ShardedCache::findRecord(size_t Point, WordSpan Key) const {
  assert(Point < Points.size() && "bad cache point");
  const PointCache &P = Points[Point];
  std::lock_guard<std::mutex> Lock(stripeFor(Point));
  for (const auto &R : P.Records) {
    switch (P.Policy) {
    case ir::CachePolicy::CacheOneUnchecked:
      return R; // any resident entry serves
    case ir::CachePolicy::CacheOne:
    case ir::CachePolicy::CacheAll:
      if (R->Key == Key)
        return R;
      break;
    case ir::CachePolicy::CacheIndexed:
      if (indexInRange(*R, P.IndexPos) &&
          Key[P.IndexPos].Bits < MaxIndexedKey) {
        if (R->Key[P.IndexPos].Bits == Key[P.IndexPos].Bits)
          return R;
      } else if (R->Key == Key) {
        return R;
      }
      break;
    }
  }
  return nullptr;
}

std::vector<std::shared_ptr<CacheRecord>>
ShardedCache::insert(std::shared_ptr<CacheRecord> Rec) {
  assert(Rec->Point < Points.size() && "bad cache point");
  PointCache &P = Points[Rec->Point];
  std::lock_guard<std::mutex> Lock(stripeFor(Rec->Point));
  std::vector<std::shared_ptr<CacheRecord>> Displaced;
  auto displaceIf = [&](auto Pred) {
    for (auto It = P.Records.begin(); It != P.Records.end();) {
      if (Pred(**It)) {
        Displaced.push_back(std::move(*It));
        It = P.Records.erase(It);
      } else {
        ++It;
      }
    }
  };
  switch (P.Policy) {
  case ir::CachePolicy::CacheOne:
  case ir::CachePolicy::CacheOneUnchecked:
    // One-slot replacement: whatever is resident is displaced.
    displaceIf([](const CacheRecord &) { return true; });
    break;
  case ir::CachePolicy::CacheAll:
    displaceIf([&](const CacheRecord &R) { return R.Key == Rec->Key; });
    break;
  case ir::CachePolicy::CacheIndexed:
    if (indexInRange(*Rec, P.IndexPos)) {
      // The direct array replaces by index value alone (non-index key
      // words are unchecked invariants, as in the inline cache).
      uint64_t Idx = Rec->Key[P.IndexPos].Bits;
      displaceIf([&](const CacheRecord &R) {
        return indexInRange(R, P.IndexPos) &&
               R.Key[P.IndexPos].Bits == Idx;
      });
    } else {
      displaceIf([&](const CacheRecord &R) { return R.Key == Rec->Key; });
    }
    break;
  }
  P.Records.push_back(std::move(Rec));
  republish(P);
  return Displaced;
}

void ShardedCache::erase(const CacheRecord *Rec) {
  size_t Point = Rec->Point;
  assert(Point < Points.size() && "bad cache point");
  PointCache &P = Points[Point];
  std::lock_guard<std::mutex> Lock(stripeFor(Point));
  auto It = std::find_if(
      P.Records.begin(), P.Records.end(),
      [&](const std::shared_ptr<CacheRecord> &R) { return R.get() == Rec; });
  if (It == P.Records.end())
    return; // already displaced by a newer insert
  P.Records.erase(It);
  republish(P);
}

size_t ShardedCache::trimGraveyard() {
  // Lock every stripe (fixed order; no other path takes two at once).
  for (std::mutex &M : Stripes)
    M.lock();
  size_t Freed = 0;
  for (PointCache &P : Points) {
    Freed += P.Retired.size();
    P.Retired.clear();
  }
  for (auto It = Stripes.rbegin(); It != Stripes.rend(); ++It)
    It->unlock();
  return Freed;
}

size_t ShardedCache::retiredSnapshots() const {
  size_t N = 0;
  for (size_t I = 0; I != Points.size(); ++I) {
    std::lock_guard<std::mutex> Lock(stripeFor(I));
    N += Points[I].Retired.size();
  }
  return N;
}

} // namespace server
} // namespace dyc
