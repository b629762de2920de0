//===- tests/PaperNumbersTest.cpp - the simulated Table 3 numbers, pinned ----===//
//
// The exact simulated numbers behind Table 3 and section 4.4.4's pnmconvol
// sweep. InterpParity compares the two VM engines with each other and
// WorkloadTest only asks for a speedup above 1, so a change to accounting
// both engines share (cost model, I-cache model, block charging) could
// move every number and pass both. This file holds, per Table 3 program,
// core::measureRegion's s, d, o and instructions generated, plus the
// dynamic build's I-cache hits and misses after the same invocation
// sequence; and pnmconvol's sweep as bench/pnmconvol_icache runs it
// (4/8/16/32 KB direct-mapped, dead-assignment elimination on and off).
//
// A change that means to move these numbers updates the rows and says
// why; a change that means to move only host time must pass unchanged.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace dyc;
using workloads::Workload;

namespace {

struct PinnedRegion {
  const char *Name;
  double S;                ///< static cycles per invocation
  double D;                ///< dynamic cycles per invocation
  uint64_t O;              ///< dynamic-compilation cycles
  uint64_t InstrsGenerated;
  uint64_t ICacheHits;     ///< dynamic build, warm-up plus timed runs
  uint64_t ICacheMisses;
};

// Recorded with the default OptFlags, CostModel and ICacheConfig.
const PinnedRegion Table3Rows[] = {
    {"dinero", 986359, 680006.33333333337, 8209u, 158u, 1251648u, 31u},
    {"m88ksim", 85, 20.146666666666668, 1568u, 1u, 1800u, 6u},
    {"mipsi", 155138, 33169.599999999999, 8904u, 86u, 156706u, 20u},
    {"pnmconvol", 3286725, 682313.66666666663, 67245u, 675u, 683466u, 90u},
    {"viewperf:project&clip", 50614, 27404.099999999999, 7973u, 124u,
     176737u, 20u},
    {"viewperf:shade", 17392, 10100.200000000001, 4166u, 43u, 52554u, 51u},
    {"binary", 87, 58.146666666666668, 9837u, 114u, 6310u, 11u},
    {"chebyshev", 2637, 532.11000000000001, 4756u, 49u, 11847u, 12u},
    {"dotproduct", 2013, 125.11, 12774u, 37u, 8232u, 9u},
    {"query", 192, 82.146666666666661, 3148u, 29u, 9924u, 9u},
    {"romberg", 4462, 3536.4400000000001, 21134u, 442u, 45087u, 60u},
};

const PinnedRegion &pinnedRow(const std::string &Name) {
  for (const PinnedRegion &R : Table3Rows)
    if (Name == R.Name)
      return R;
  ADD_FAILURE() << "no pinned row for " << Name;
  return Table3Rows[0];
}

class PaperNumbers : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperNumbers, RegionMeasurementIsPinned) {
  const Workload &W = workloads::workloadByName(GetParam());
  const PinnedRegion &Pin = pinnedRow(W.Name);
  core::RegionPerf P = core::measureRegion(W, OptFlags());
  EXPECT_TRUE(P.OutputsMatch);
  EXPECT_EQ(P.StaticCyclesPerInvoke, Pin.S) << "s";
  EXPECT_EQ(P.DynCyclesPerInvoke, Pin.D) << "d";
  EXPECT_EQ(P.OverheadCycles, Pin.O) << "o";
  EXPECT_EQ(P.InstructionsGenerated, Pin.InstrsGenerated);

  // measureRegion's dynamic sequence: one warm-up run that specializes,
  // then the timed invocations.
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  auto E = Ctx.buildDynamic(OptFlags());
  workloads::WorkloadSetup S = W.Setup(*E->Machine);
  int F = E->findFunction(W.RegionFunc);
  ASSERT_GE(F, 0);
  for (uint64_t I = 0; I != 1 + W.RegionInvocations; ++I)
    E->Machine->run(static_cast<uint32_t>(F), S.RegionArgs);
  EXPECT_EQ(E->Machine->icache().hits(), Pin.ICacheHits) << "I-cache hits";
  EXPECT_EQ(E->Machine->icache().misses(), Pin.ICacheMisses)
      << "I-cache misses";
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : workloads::allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Table3, PaperNumbers,
                         ::testing::ValuesIn(workloadNames()));

TEST(PaperNumbers, EveryTable3ProgramHasAPinnedRow) {
  EXPECT_EQ(workloads::allWorkloads().size(), std::size(Table3Rows));
}

struct PinnedSweepPoint {
  bool DAE;
  uint32_t KB;
  double S;
  double D;
  uint64_t O;
  uint64_t InstrsGenerated;
};

const PinnedSweepPoint PnmconvolSweep[] = {
    {true, 4, 3286725, 682313.66666666663, 67245u, 675u},
    {true, 8, 3286725, 682313.66666666663, 67245u, 675u},
    {true, 16, 3286725, 682313.66666666663, 67245u, 675u},
    {true, 32, 3286725, 682313.66666666663, 67245u, 675u},
    {false, 4, 3286725, 6638813, 118727u, 3890u},
    {false, 8, 3286725, 6492799, 118727u, 3890u},
    {false, 16, 3286725, 3901257.6666666665, 118727u, 3890u},
    {false, 32, 3286725, 3901257.6666666665, 118727u, 3890u},
};

TEST(PaperNumbers, PnmconvolICacheSweepIsPinned) {
  const Workload &W = workloads::workloadByName("pnmconvol");
  for (const PinnedSweepPoint &Pin : PnmconvolSweep) {
    SCOPED_TRACE(::testing::Message()
                 << "DAE " << (Pin.DAE ? "on" : "off") << ", " << Pin.KB
                 << " KB");
    OptFlags Fl;
    Fl.DeadAssignmentElimination = Pin.DAE;
    vm::ICacheConfig IC;
    IC.SizeBytes = Pin.KB * 1024;
    core::RegionPerf P = core::measureRegion(W, Fl, vm::CostModel(), IC);
    EXPECT_TRUE(P.OutputsMatch);
    EXPECT_EQ(P.StaticCyclesPerInvoke, Pin.S) << "s";
    EXPECT_EQ(P.DynCyclesPerInvoke, Pin.D) << "d";
    EXPECT_EQ(P.OverheadCycles, Pin.O) << "o";
    EXPECT_EQ(P.InstructionsGenerated, Pin.InstrsGenerated);
  }
}

} // namespace
