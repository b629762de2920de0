//===- vm/CostModel.cpp ----------------------------------------------------===//

#include "vm/CostModel.h"

namespace dyc {
namespace vm {

uint32_t CostModel::costOf(const Instr &I, bool InDynCode) const {
  uint32_t C = baseCostOf(I);
  if (InDynCode && C > 0) {
    // Lost dual-issue opportunity: about half a slot per instruction,
    // bounded — long-latency operations are latency-bound either way.
    uint32_t Surcharge = C * DynCodePenaltyPct / 100;
    if (Surcharge < 1)
      Surcharge = 1;
    if (Surcharge > 2)
      Surcharge = 2;
    C += Surcharge;
  }
  return C;
}

uint32_t CostModel::baseCostOf(const Instr &I) const {
  // Each row names the field that prices it. EnterRegion and Dispatch cost
  // 0 here: the run-time charges them according to the dispatch policy.
  switch (I.Opcode) {
#define DYC_OP(Name, Mnemonic, Shape, Cost)                                    \
  case Op::Name:                                                               \
    return Cost;
#include "support/OpTable.def"
  }
  return IntAlu;
}

} // namespace vm
} // namespace dyc
