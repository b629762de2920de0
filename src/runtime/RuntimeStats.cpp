//===- runtime/RuntimeStats.cpp ------------------------------------------------===//

#include "runtime/RuntimeStats.h"

#include "support/Support.h"

namespace dyc {
namespace runtime {

std::string RegionStats::toString() const {
  std::string S;
#define DYC_REGION_COUNTER(Name, Label) appendCounter(S, Label, Name);
#include "runtime/RegionCounters.def"
  if (TierEnabled) {
#define DYC_TIER_COUNTER(Name, Label, Advice) appendCounter(S, Label, Name);
#include "tier/TierCounters.def"
  }
  return S;
}

} // namespace runtime
} // namespace dyc
