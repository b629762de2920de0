//===- speculate/SpeculationStats.cpp ------------------------------------------------===//

#include "speculate/SpeculationStats.h"

#include "support/Support.h"

namespace dyc {
namespace speculate {

std::string SpeculationStats::toString() const {
  return formatString(
      "speculation: %llu calls observed, %llu promoted, %llu declined, "
      "%llu demoted, %llu blacklisted\n"
      "guards: %llu checks, %llu hits, %llu failures\n",
      (unsigned long long)CallsObserved, (unsigned long long)Promotions,
      (unsigned long long)PromotionsDeclined, (unsigned long long)Demotions,
      (unsigned long long)ParamsBlacklisted, (unsigned long long)GuardChecks,
      (unsigned long long)GuardHits, (unsigned long long)GuardFailures);
}

} // namespace speculate
} // namespace dyc
