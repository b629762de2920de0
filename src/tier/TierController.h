//===- tier/TierController.h - Cold/warm/hot tier state machine -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tiering controller: drives each dynamic region through the three
/// execution tiers the system already owns —
///
///   cold : generic (fallback) code single-stepped in the VM::stepOne
///          switch loop (RuntimeHook::Target::Interpret);
///   warm : the same generic code through the predecoded/quickened
///          threaded engine;
///   hot  : background specialization requested from the SpecServer
///          worker pool, installed through the RCU snapshot path, with
///          mid-loop (OSR) entry at back-edge safe points.
///
/// Heat is per region, counted on dispatch *misses* through the shared
/// profile::HeatCounters bank (hits already run specialized code — there
/// is no tier decision to make). Tiering changes only *when* work
/// happens: every executed dispatch charges the same simulated cost in
/// every tier, cold/warm execution is engine-parity-invariant by the VM
/// contract, and once all keys are installed a tiered run's per-round
/// counters are bit-identical to the eager configuration's.
///
/// Thread-safety: onMiss and the server's counter bumps come from
/// concurrent client threads (under the server's dispatch gate); all
/// state is atomic. Counter snapshots are monotonic, relaxed reads.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_TIER_TIERCONTROLLER_H
#define DYC_TIER_TIERCONTROLLER_H

#include "bta/OptFlags.h"
#include "profile/Heat.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace dyc {
namespace tier {

enum class TierLevel : uint8_t { Cold, Warm, Hot };

const char *tierLevelName(TierLevel L);

/// Monotonic per-region (and, summed, per-server) tier transition
/// counters (tier/TierCounters.def). Snapshot form — plain integers.
struct TierCounters {
#define DYC_TIER_COUNTER(Name, Label, Advice) uint64_t Name = 0;
#include "tier/TierCounters.def"

  /// Copies every counter to the same-named field of \p To (a
  /// runtime::RegionStats or a server::ServerStatsSnapshot).
  template <class Stats> void copyTo(Stats &To) const {
#define DYC_TIER_COUNTER(Name, Label, Advice) To.Name = Name;
#include "tier/TierCounters.def"
  }

  /// The tier advisor's evidence: ", cold N, warm N (promotions N/N),
  /// installs N, osr N (polls N)".
  std::string advice() const;
};

/// What the dispatch path should do with one miss.
struct TierDecision {
  TierLevel Level = TierLevel::Hot;
  bool Compile = false;   ///< request background specialization
  bool Interpret = false; ///< run the fallback frame in the switch loop
};

class TierController {
public:
  /// \p NumRegions fixes the bank size — every dispatch resolves to a
  /// region ordinal below it.
  TierController(const TieringPolicy &Policy, size_t NumRegions);

  const TieringPolicy &policy() const { return P; }

  /// Classifies one dispatch miss on \p RegionOrd: bumps the region's
  /// heat, records the tier transition if the bump crossed a threshold,
  /// and counts the execution under its tier.
  TierDecision onMiss(size_t RegionOrd);

  /// Current tier of \p RegionOrd (from its heat; never cools down).
  TierLevel level(size_t RegionOrd) const;

  /// One region's live counters: onMiss bumps the executions and
  /// promotions, the server the events it sees (installs through the
  /// background path, OSR transfers, answered back-edge polls).
  struct RegionCounters {
#define DYC_TIER_COUNTER(Name, Label, Advice) std::atomic<uint64_t> Name{0};
#include "tier/TierCounters.def"

    void addTo(TierCounters &T) const;
  };
  RegionCounters &region(size_t RegionOrd) {
    assert(RegionOrd < C.size() && "region ordinal out of range");
    return C[RegionOrd];
  }

  TierCounters counters(size_t RegionOrd) const;
  /// Sum over all regions.
  TierCounters totals() const;

private:

  TierLevel levelOf(uint64_t Heat) const;

  TieringPolicy P;
  /// Per-region miss heat — the same bank type the ValueProfiler counts
  /// call heat through (one sampling mechanism, two consumers).
  profile::HeatCounters Heat;
  std::vector<RegionCounters> C;
};

} // namespace tier
} // namespace dyc

#endif // DYC_TIER_TIERCONTROLLER_H
