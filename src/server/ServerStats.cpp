//===- server/ServerStats.cpp ------------------------------------------------------===//

#include "server/ServerStats.h"

#include "support/Support.h"

namespace dyc {
namespace server {

void ServerStats::addTo(ServerStatsSnapshot &S) const {
#define DYC_LEDGER(Name, Group, Label)                                         \
  S.Name += Name.load(std::memory_order_relaxed);
#include "server/ServerCounters.def"
}

namespace {

/// The parts of ServerStatsSnapshot::toString, in print order (the Group
/// column of server/ServerCounters.def).
enum class StatsGroup { Main, Snaps, Fallback, Tier, Tenancy };

} // namespace

std::string ServerStatsSnapshot::toString() const {
  std::string S;
  // Appends group G's words, in row order, or with Print false only says
  // whether one of them is non-zero.
  auto Words = [&](StatsGroup G, bool Print = true) {
    bool Any = false;
#define DYC_ROW(Name, Group, Label)                                            \
  if (G == StatsGroup::Group) {                                                \
    Any |= Name != 0;                                                          \
    if (Print)                                                                 \
      appendCounter(S, Label, Name);                                           \
  }
#define DYC_LEDGER(Name, Group, Label) DYC_ROW(Name, Group, Label)
#define DYC_GAUGE(Name, Group, Label) DYC_ROW(Name, Group, Label)
#define DYC_TIER_COUNTER(Name, Label, Advice) DYC_ROW(Name, Tier, Label)
#include "server/ServerCounters.def"
#undef DYC_ROW
    return Any;
  };
  Words(StatsGroup::Main);
  Words(StatsGroup::Snaps);
  if (Words(StatsGroup::Fallback, false))
    Words(StatsGroup::Fallback);
  if (TierEnabled) {
    S += " tier[";
    Words(StatsGroup::Tier);
    S += ']';
  }
  S += " plan[";
#define DYC_PLAN_COUNTER(Name, Label) appendCounter(S, Label, Name);
#include "runtime/RegionCounters.def"
  S += ']';
  if (MultiTenant) {
    S += " mt[";
    Words(StatsGroup::Tenancy);
    S += ']';
  }
  return S;
}

} // namespace server
} // namespace dyc
