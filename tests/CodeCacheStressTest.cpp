//===- tests/CodeCacheStressTest.cpp - dispatch-cache churn stress ----------------===//
//
// Long interleaved insert/erase/lookup sequences against a reference model,
// with the bounds that make them interesting: the double-hash table erases
// by tombstone, and tombstones lengthen probe chains exactly like live
// entries until insert reuse or a rehash reclaims them. Heavy churn must
// therefore keep the probes per lookup bounded — an implementation that
// only counted live entries toward the load factor would degrade to
// O(capacity) scans here — and the table's size bounded by its live
// entries, not by how many keys have passed through it. The cache_indexed
// policy is stressed across both of its planes at once: the direct array
// for in-range index values and the checked double-hash fallback for
// out-of-range ones.
//
//===----------------------------------------------------------------------===//

#include "runtime/CodeCache.h"
#include "runtime/RegionExec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

using namespace dyc;
using runtime::CacheResult;
using runtime::CodeCache;
using runtime::SpecEntry;

namespace {

/// Deterministic 64-bit LCG (MMIX constants) so the churn schedule is
/// reproducible across platforms and runs.
struct Lcg {
  uint64_t S;
  explicit Lcg(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 17;
  }
};

std::vector<Word> key2(uint64_t A, uint64_t B) { return {Word{A}, Word{B}}; }
std::vector<Word> key1(uint64_t A) { return {Word{A}}; }

/// A published entry for \p Key; its EntryPC stands for the cached code.
std::shared_ptr<SpecEntry> entry(std::vector<Word> Key, uint32_t PC) {
  auto E = std::make_shared<SpecEntry>();
  E->Key = std::move(Key);
  E->Hash = hashWords(E->Key);
  E->EntryPC = PC;
  return E;
}

/// A cache with the lookup and probe totals the run-time keeps beside it.
struct Probed {
  CodeCache C;
  uint64_t Lookups = 0, Probes = 0;
  explicit Probed(ir::CachePolicy P, uint32_t IndexPos = 0) : C(P, IndexPos) {}
  CacheResult lookup(const std::vector<Word> &Key) {
    CacheResult R = C.lookup(Key);
    ++Lookups;
    Probes += R.Probes;
    return R;
  }
};

/// Average probes per lookup must stay O(1) under churn. The table sits at
/// no more than 2/3 load (tombstones included), where double hashing
/// averages well under 3 probes; 8 leaves slack without hiding regressions.
constexpr uint64_t MaxAvgProbes = 8;

TEST(CodeCacheStress, CacheAllChurnMatchesReferenceModel) {
  Probed P(ir::CachePolicy::CacheAll);
  CodeCache &C = P.C;
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> Ref;
  Lcg R(0x9e3779b97f4a7c15ull);
  uint32_t NextVal = 0;
  for (int Op = 0; Op != 20000; ++Op) {
    uint64_t A = R.next() % 61, B = R.next() % 7;
    std::vector<Word> Key = key2(A, B);
    switch (R.next() % 4) {
    case 0:
    case 1: { // lookups get half the schedule
      CacheResult CR = P.lookup(Key);
      auto It = Ref.find({A, B});
      ASSERT_EQ(CR.Entry != nullptr, It != Ref.end()) << "op " << Op;
      if (CR.Entry) {
        ASSERT_EQ(CR.Entry->EntryPC, It->second) << "op " << Op;
      }
      break;
    }
    case 2:
      C.insert(entry(Key, NextVal));
      Ref[{A, B}] = NextVal++;
      break;
    case 3:
      C.erase(Key);
      Ref.erase({A, B});
      break;
    }
    ASSERT_EQ(C.entries(), Ref.size()) << "op " << Op;
  }
  ASSERT_GT(P.Lookups, 0u);
  EXPECT_LT(P.Probes, P.Lookups * MaxAvgProbes);
}

TEST(CodeCacheStress, TombstoneWavesKeepProbesBounded) {
  Probed P(ir::CachePolicy::CacheAll);
  CodeCache &C = P.C;
  // Each wave installs 32 keys, verifies them, then erases them all —
  // leaving 32 tombstones for the next wave to probe through. 200 waves
  // accumulate thousands of erases; insert-time tombstone reuse and the
  // rehash policy must keep both hit and miss probes short throughout.
  for (int Wave = 0; Wave != 200; ++Wave) {
    for (uint64_t K = 0; K != 32; ++K)
      C.insert(entry(key1(K), static_cast<uint32_t>(K)));
    for (uint64_t K = 0; K != 32; ++K) {
      CacheResult CR = P.lookup(key1(K));
      ASSERT_TRUE(CR.Entry) << "wave " << Wave << " key " << K;
      ASSERT_EQ(CR.Entry->EntryPC, static_cast<uint32_t>(K));
    }
    for (uint64_t K = 0; K != 32; ++K)
      C.erase(key1(K));
    ASSERT_EQ(C.entries(), 0u);
    // Misses walk probe chains to an empty (never-used) slot; these are
    // the lookups tombstone accumulation would hurt first.
    for (uint64_t K = 0; K != 32; ++K)
      ASSERT_FALSE(P.lookup(key1(K)).Entry) << "wave " << Wave;
  }
  EXPECT_LT(P.Probes, P.Lookups * MaxAvgProbes);
}

TEST(CodeCacheStress, SlidingWindowChurnKeepsCapacityBounded) {
  // 32 live keys; every step inserts a never-seen key and erases the
  // oldest, as a CLOCK-bounded region publishing fresh keys does. Each
  // erase leaves a tombstone, so the table must rehash; sizing the rehash
  // by the live entries keeps it at the smallest capacity holding 33 of
  // them at no more than half load: 127 slots. A table that grew on every
  // rehash instead would pass 65,521 slots within 10^5 steps.
  constexpr uint64_t Window = 32, Steps = 100000, MaxCapacity = 127;
  Probed P(ir::CachePolicy::CacheAll);
  CodeCache &C = P.C;
  std::deque<uint64_t> Live;
  size_t PeakCapacity = 0;
  for (uint64_t K = 0; K != Steps; ++K) {
    C.insert(entry(key2(K, K * 7919), static_cast<uint32_t>(K)));
    Live.push_back(K);
    if (Live.size() > Window) {
      C.erase(key2(Live.front(), Live.front() * 7919));
      Live.pop_front();
    }
    PeakCapacity = std::max(PeakCapacity, C.tableCapacity());
    ASSERT_EQ(C.entries(), Live.size()) << "step " << K;
    if (K % 97 == 0) {
      CacheResult CR = P.lookup(key2(Live.front(), Live.front() * 7919));
      ASSERT_TRUE(CR.Entry) << "step " << K;
      ASSERT_EQ(CR.Entry->EntryPC, static_cast<uint32_t>(Live.front()));
      ASSERT_FALSE(P.lookup(key2(K + 1, 0)).Entry) << "step " << K;
    }
  }
  EXPECT_LE(PeakCapacity, MaxCapacity);
  EXPECT_LT(P.Probes, P.Lookups * MaxAvgProbes);
}

TEST(CodeCacheStress, IndexedChurnAcrossBothPlanes) {
  // IndexPos = 1: the second key word indexes the direct array; values at
  // or above MaxIndexedKey take the checked double-hash fallback. The two
  // planes have different replacement semantics — the array replaces by
  // index alone (other key words are unchecked invariants), the fallback
  // by full key — so each gets its own reference model.
  Probed P(ir::CachePolicy::CacheIndexed, 1);
  CodeCache &C = P.C;
  std::map<uint64_t, uint32_t> RefIdx;
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> RefOvf;
  Lcg R(0xdeadbeefcafef00dull);
  uint32_t NextVal = 0;
  constexpr uint64_t Base = CodeCache::MaxIndexedKey;
  for (int Op = 0; Op != 20000; ++Op) {
    bool InRange = R.next() % 3 != 0; // 2/3 direct-array traffic
    uint64_t A = R.next() % 5;
    uint64_t Idx = InRange ? R.next() % 256 : Base + R.next() % 64;
    std::vector<Word> Key = key2(A, Idx);
    switch (R.next() % 4) {
    case 0:
    case 1: {
      CacheResult CR = P.lookup(Key);
      if (InRange) {
        auto It = RefIdx.find(Idx);
        ASSERT_EQ(CR.Entry != nullptr, It != RefIdx.end()) << "op " << Op;
        if (CR.Entry) {
          ASSERT_EQ(CR.Entry->EntryPC, It->second);
        }
        ASSERT_EQ(CR.Probes, 0u) << "direct hit must not probe the table";
      } else {
        auto It = RefOvf.find({A, Idx});
        ASSERT_EQ(CR.Entry != nullptr, It != RefOvf.end()) << "op " << Op;
        if (CR.Entry) {
          ASSERT_EQ(CR.Entry->EntryPC, It->second);
        }
        ASSERT_GE(CR.Probes, 1u) << "fallback must probe the table";
      }
      break;
    }
    case 2:
      C.insert(entry(Key, NextVal));
      if (InRange)
        RefIdx[Idx] = NextVal++;
      else
        RefOvf[{A, Idx}] = NextVal++;
      break;
    case 3:
      C.erase(Key);
      if (InRange)
        RefIdx.erase(Idx);
      else
        RefOvf.erase({A, Idx});
      break;
    }
    ASSERT_EQ(C.entries(), RefIdx.size() + RefOvf.size()) << "op " << Op;
  }
  ASSERT_GT(P.Lookups, 0u);
  EXPECT_LT(P.Probes, P.Lookups * MaxAvgProbes);
}

TEST(CodeCacheStress, EpochBumpsOnMutationOnly) {
  // The run-time's inline caches validate (entry, probe count) memos
  // against epoch(); the contract is that insert and erase — including
  // no-op erases of absent keys — bump it, and lookups never do.
  CodeCache C(ir::CachePolicy::CacheAll);
  uint64_t E0 = C.epoch();
  C.lookup(key2(1, 2));
  EXPECT_EQ(C.epoch(), E0);
  C.insert(entry(key2(1, 2), 7));
  EXPECT_GT(C.epoch(), E0);
  uint64_t E1 = C.epoch();
  for (int I = 0; I != 100; ++I)
    C.lookup(key2(1, 2));
  EXPECT_EQ(C.epoch(), E1);
  C.erase(key2(1, 2));
  EXPECT_GT(C.epoch(), E1);
  uint64_t E2 = C.epoch();
  C.erase(key2(1, 2)); // absent: still a mutation in the contract
  EXPECT_GT(C.epoch(), E2);
  // A copy carries the epoch (the server publishes mutated copies).
  CodeCache Copy = C;
  EXPECT_EQ(Copy.epoch(), C.epoch());
  Copy.insert(entry(key2(3, 4), 8));
  EXPECT_GT(Copy.epoch(), C.epoch());
  EXPECT_FALSE(C.lookup(key2(3, 4)).Entry);
}

TEST(CodeCacheStress, OneSlotChurn) {
  CodeCache Checked(ir::CachePolicy::CacheOne);
  CodeCache Unchecked(ir::CachePolicy::CacheOneUnchecked);
  Lcg R(42);
  uint64_t ResidentKey = 0;
  bool Resident = false;
  for (int Op = 0; Op != 5000; ++Op) {
    uint64_t K = R.next() % 8;
    switch (R.next() % 3) {
    case 0: {
      CacheResult CR = Checked.lookup(key1(K));
      ASSERT_EQ(CR.Entry != nullptr, Resident && ResidentKey == K);
      CacheResult CU = Unchecked.lookup(key1(K));
      ASSERT_EQ(CU.Entry != nullptr, Resident); // unchecked: any entry serves
      break;
    }
    case 1: {
      std::shared_ptr<SpecEntry> D = Checked.insert(entry(key1(K), 1));
      ASSERT_EQ(D != nullptr, Resident);
      if (D) {
        ASSERT_EQ(D->Key, key1(ResidentKey));
      }
      Unchecked.insert(entry(key1(K), 1));
      ResidentKey = K;
      Resident = true;
      break;
    }
    case 2:
      Checked.erase(key1(K));
      Unchecked.erase(key1(K));
      if (Resident && ResidentKey == K)
        Resident = false;
      break;
    }
    ASSERT_EQ(Checked.entries(), Resident ? 1u : 0u);
    ASSERT_EQ(Unchecked.entries(), Resident ? 1u : 0u);
  }
}

} // namespace
