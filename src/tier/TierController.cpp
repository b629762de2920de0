//===- tier/TierController.cpp -------------------------------------------------------===//

#include "tier/TierController.h"

#include "support/Support.h"

#include <cassert>

namespace dyc {
namespace tier {

const char *tierLevelName(TierLevel L) {
  switch (L) {
  case TierLevel::Cold: return "cold";
  case TierLevel::Warm: return "warm";
  case TierLevel::Hot:  return "hot";
  }
  return "?";
}

TierController::TierController(const TieringPolicy &Policy, size_t NumRegions)
    : P(Policy), Heat(NumRegions), C(NumRegions) {}

TierLevel TierController::levelOf(uint64_t HeatVal) const {
  if (HeatVal > P.HotThreshold)
    return TierLevel::Hot;
  if (HeatVal > P.WarmThreshold)
    return TierLevel::Warm;
  return TierLevel::Cold;
}

TierDecision TierController::onMiss(size_t RegionOrd) {
  assert(RegionOrd < C.size() && "region ordinal out of range");
  uint64_t H = Heat.bump(RegionOrd);
  RegionCounters &RC = C[RegionOrd];
  TierDecision D;
  D.Level = levelOf(H);
  // Transition counters fire exactly once per crossing: the bump that
  // first exceeds a threshold is the promotion. (Heat never cools, so a
  // crossing is unique; under concurrent bumps exactly one thread
  // observes the crossing value.)
  if (H == static_cast<uint64_t>(P.WarmThreshold) + 1 &&
      D.Level != TierLevel::Cold)
    RC.WarmPromotions.fetch_add(1, std::memory_order_relaxed);
  if (H == static_cast<uint64_t>(P.HotThreshold) + 1 &&
      D.Level == TierLevel::Hot)
    RC.HotPromotions.fetch_add(1, std::memory_order_relaxed);
  switch (D.Level) {
  case TierLevel::Cold:
    D.Interpret = true;
    RC.ColdExecs.fetch_add(1, std::memory_order_relaxed);
    break;
  case TierLevel::Warm:
    RC.WarmExecs.fetch_add(1, std::memory_order_relaxed);
    break;
  case TierLevel::Hot:
    D.Compile = true;
    break;
  }
  return D;
}

TierLevel TierController::level(size_t RegionOrd) const {
  return levelOf(Heat.get(RegionOrd));
}

std::string TierCounters::advice() const {
  return formatString(""
#define DYC_TIER_COUNTER(Name, Label, Advice) Advice
#include "tier/TierCounters.def"
#define DYC_TIER_COUNTER(Name, Label, Advice) , (unsigned long long)Name
#include "tier/TierCounters.def"
  );
}

void TierController::RegionCounters::addTo(TierCounters &T) const {
#define DYC_TIER_COUNTER(Name, Label, Advice)                                  \
  T.Name += Name.load(std::memory_order_relaxed);
#include "tier/TierCounters.def"
}

TierCounters TierController::counters(size_t RegionOrd) const {
  assert(RegionOrd < C.size() && "region ordinal out of range");
  TierCounters T;
  C[RegionOrd].addTo(T);
  return T;
}

TierCounters TierController::totals() const {
  TierCounters T;
  for (const RegionCounters &RC : C)
    RC.addTo(T);
  return T;
}

} // namespace tier
} // namespace dyc
