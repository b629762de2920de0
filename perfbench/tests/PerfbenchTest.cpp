//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests -------===//

#include "Calibrate.h"
#include "Trace.h"
#include "Util.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace perfbench;

TEST(Generators, RngRepeatsForASeedAndDiffersAcrossSeeds) {
  Rng A(42), B(42), C(43);
  std::vector<uint64_t> VA, VB, VC;
  for (int I = 0; I != 16; ++I) {
    VA.push_back(A.next());
    VB.push_back(B.next());
    VC.push_back(C.next());
  }
  EXPECT_EQ(VA, VB);
  EXPECT_NE(VA, VC);
  Rng Zero(0);
  EXPECT_NE(Zero.next(), 0u);
}

TEST(Generators, ZipfIsDeterministicInRangeAndSkewed) {
  Zipf Z(128, 1.1);
  Rng A(7), B(7);
  std::vector<size_t> Count(128, 0);
  for (int I = 0; I != 20000; ++I) {
    size_t K = Z.draw(A);
    ASSERT_EQ(K, Z.draw(B));
    ASSERT_LT(K, 128u);
    ++Count[K];
  }
  EXPECT_GT(Count[0], Count[1]);
  EXPECT_GT(Count[1], Count[10]);
  EXPECT_GT(Count[10], Count[127]);
}

TEST(Generators, SeededOrderIsAPermutationFixedBySeed) {
  Rng A(9), B(9), C(10);
  std::vector<size_t> OA = seededOrder(11, A), OB = seededOrder(11, B),
                      OC = seededOrder(11, C);
  EXPECT_EQ(OA, OB);
  EXPECT_NE(OA, OC);
  EXPECT_EQ(std::set<size_t>(OA.begin(), OA.end()).size(), 11u);
  EXPECT_EQ(*std::max_element(OA.begin(), OA.end()), 10u);
}

TEST(Statistics, NearestRankPercentiles) {
  std::vector<double> V = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(percentile(V, 0.0), 1);
  EXPECT_EQ(percentile(V, 0.5), 5);
  EXPECT_EQ(percentile(V, 0.9), 9);
  EXPECT_EQ(percentile(V, 0.91), 10);
  EXPECT_EQ(percentile(V, 1.0), 10);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(geomean({1, 100}), 10);
  EXPECT_EQ(geomean({}), 0);
}

TEST(Calibration, SlowdownFollowsTheRecentLoopTimes) {
  Calibrator C;
  EXPECT_EQ(C.slowdown({0.2, 0.6, 0.2}), 1);
  for (size_t I = 0; I != Calibrator::Window + 3; ++I)
    C.sample();
  for (Kind K : {Kind::Interp, Kind::Heap, Kind::Zero}) {
    ASSERT_EQ(C.recent(K).size(), Calibrator::Window);
    for (double Ns : C.recent(K))
      EXPECT_GT(Ns, 0);
  }
  EXPECT_EQ(C.slowdown({0, 0, 0}), 1);
  double Interp = C.slowdown({1, 0, 0}), Heap = C.slowdown({0, 1, 0});
  EXPECT_DOUBLE_EQ(Interp, median(C.recent(Kind::Interp)) /
                               Calibrator::NominalNs[0]);
  EXPECT_NEAR(C.slowdown({0.4, 0.2, 0}),
              std::pow(Interp, 0.4) * std::pow(Heap, 0.2), 1e-9);
}

TEST(Statistics, ChecksCountEveryOperation) {
  Checks C;
  C.record(true);
  C.record(false);
  Checks D;
  D.record(true);
  C.add(D);
  EXPECT_EQ(C.Attempted, 3u);
  EXPECT_EQ(C.Failed, 1u);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // a [0,100) holds b [10,40) and c [50,60); b holds d [20,25).
  std::vector<Span> S = {{"a", 0, 100, -1, 1},
                         {"b", 10, 40, 0, 1},
                         {"d", 20, 25, 1, 1},
                         {"c", 50, 60, 0, 1},
                         {"a", 200, 230, -1, 2}};
  auto T = selfTimes(S);
  EXPECT_EQ(T["a"].Calls, 2u);
  EXPECT_DOUBLE_EQ(T["a"].SelfNs, 60 + 30);
  EXPECT_DOUBLE_EQ(T["b"].SelfNs, 25);
  EXPECT_DOUBLE_EQ(T["c"].SelfNs, 10);
  EXPECT_DOUBLE_EQ(T["d"].SelfNs, 5);
  // Self times sum to the top-level durations.
  EXPECT_DOUBLE_EQ(selfTimeSum(S), 130);
  // A window starting inside an op treats spans whose parent lies before
  // the window as top level.
  EXPECT_DOUBLE_EQ(selfTimeSum(S, 1, 4), 30 + 10);
  EXPECT_DOUBLE_EQ(spanSumErrPct(95, 100), 5);
  EXPECT_DOUBLE_EQ(spanSumErrPct(105, 100), 5);
}

TEST(Spans, SpanSumGapCountsAsFailedOperation) {
  // Two ops over a 100 ns phase: a 2 ns gap passes, a 20 ns gap fails.
  std::vector<Span> Tiled = {{"a", 0, 49, -1, 1}, {"b", 51, 100, -1, 2}};
  std::vector<Span> Gap = {{"a", 0, 40, -1, 1}, {"b", 60, 100, -1, 2}};
  Checks C;
  EXPECT_DOUBLE_EQ(checkSpanSum(C, Tiled, 0, 100), 2);
  EXPECT_EQ(C.Failed, 0u);
  EXPECT_DOUBLE_EQ(checkSpanSum(C, Gap, 0, 100), 20);
  EXPECT_EQ(C.Attempted, 2u);
  EXPECT_EQ(C.Failed, 1u);
}

TEST(Spans, TracerNestsAndDisabledTracerRecordsNothing) {
  Tracer T(true, 1);
  {
    Scoped A(T, "outer");
    Scoped B(T, "inner");
    T.addChild("measured", 1, 2);
  }
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T.spans()[0].Parent, -1);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.spans()[2].Parent, 1);
  EXPECT_LE(T.spans()[1].End, T.spans()[0].End);

  Tracer Off(false, 2);
  {
    Scoped A(Off, "outer");
    Off.addChild("measured", 1, 2);
  }
  EXPECT_EQ(Off.size(), 0u);
}

namespace {

Result shortRun(const std::string &Workload, bool Corrupt, bool Trace = false) {
  Options O;
  O.Workload = Workload;
  O.Seed = 3;
  O.Seconds = 0.3;
  O.Trace = Trace;
  O.VmSourcePath = PERFBENCH_DIR "/bytecode_vm.minic";
  O.CorruptReference = Corrupt;
  return runWorkload(O);
}

} // namespace

class WorkloadChecks : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadChecks, CorrectRunHasNoFailures) {
  // A traced run also checks replay parity and each traced phase's span sum.
  for (bool Trace : {false, true}) {
    Result R = shortRun(GetParam(), false, Trace);
    ASSERT_EQ(R.Error, "");
    EXPECT_GT(R.Ops.Attempted, 0u);
    EXPECT_EQ(R.Ops.Failed, 0u) << "trace " << Trace;
    EXPECT_FALSE(R.Metrics.empty());
  }
}

TEST_P(WorkloadChecks, WrongReferenceCountsAsFailedOperation) {
  Result R = shortRun(GetParam(), true);
  ASSERT_EQ(R.Error, "");
  EXPECT_GT(R.Ops.Failed, 0u);
  EXPECT_LT(R.Ops.Failed, R.Ops.Attempted);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadChecks,
                         ::testing::Values("cold_start", "steady_state",
                                           "server_churn"));

TEST(WorkloadChecks, MissingInterpreterSourceIsAnError) {
  Options O;
  O.Workload = "server_churn";
  O.Seconds = 0.1;
  O.VmSourcePath = PERFBENCH_DIR "/no-such-file.minic";
  EXPECT_NE(runWorkload(O).Error, "");
}
