//===- tests/EmitPlanTest.cpp - staged-emit-plan parity tests ----------------------===//
//
// The staged emit plan's hard invariant: plans change how the host walks a
// generating extension, never what the simulated machine observes. These
// tests run every Table 3 workload through both VM engines on the plan
// path and on the reference walk (the OptFlags::ReferenceWalk test hook)
// and compare the complete observable state — simulated counters
// (DynCompCycles included), results, output memory, and the golden
// disassembly of every region — plus the speculation path, plan-cache
// counter semantics under eviction churn, block programs built on first
// placement, guard arms built on first take and in any order, the Generic
// fallback past a block's guard budget, the Div/Rem-by-zero fold guard,
// nested static-call re-entry into the specializer while a parent plan
// (of another region, or the same one, down to the block it is running)
// is executing, and the default selection.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "speculate/SpeculativeRuntime.h"

#include <gtest/gtest.h>

#include <map>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

OptFlags withPlan(bool PlanOn) {
  OptFlags Fl;
  Fl.ReferenceWalk = !PlanOn;
  return Fl;
}

/// RegionStats rendered without PlanBytes: the walk builds no block
/// programs, so that counter differs between the two modes by design;
/// everything else, plan builds and hits included, must not.
std::string statsSansPlanBytes(runtime::RegionStats St) {
  St.PlanBytes = 0;
  return St.toString();
}

/// Everything one run exposes to its environment, plus the per-region
/// disassembly: the plan path must not change one byte of emitted code or
/// one count of any simulated counter.
struct PlanTrace {
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  uint64_t ICacheHits = 0;
  uint64_t ICacheMisses = 0;
  std::vector<uint64_t> Results;
  std::vector<uint64_t> FuncCalls;
  std::vector<uint64_t> FuncInclusive;
  uint64_t MemHash = 0;
  std::vector<std::string> Disassembly;  ///< per region
  std::vector<std::string> RegionStats;  ///< per region, PlanBytes zeroed
  uint64_t PlanBuilds = 0;               ///< summed over regions
  uint64_t PlanHits = 0;
  uint64_t PlanBytes = 0;
};

uint64_t hashRange(vm::VM &M, int64_t Base, int64_t Len) {
  if (Len <= 0)
    return 0;
  return hashWords(M.memory().data() + Base, static_cast<size_t>(Len));
}

void captureMachine(core::Executable &E, PlanTrace &T) {
  T.ExecCycles = E.Machine->execCycles();
  T.DynCompCycles = E.Machine->dynCompCycles();
  T.InstrsExecuted = E.Machine->instrsExecuted();
  T.ICacheHits = E.Machine->icache().hits();
  T.ICacheMisses = E.Machine->icache().misses();
  for (uint32_t F = 0; F != E.Prog.numFunctions(); ++F) {
    T.FuncCalls.push_back(E.Machine->functionStats(F).Calls);
    T.FuncInclusive.push_back(E.Machine->functionStats(F).InclusiveCycles);
  }
}

void captureRegions(runtime::DycRuntime &RT, PlanTrace &T) {
  for (size_t Ord = 0; Ord != RT.numRegions(); ++Ord) {
    T.Disassembly.push_back(RT.disassembleRegion(Ord));
    const runtime::RegionStats &St = RT.stats(Ord);
    T.RegionStats.push_back(statsSansPlanBytes(St));
    T.PlanBuilds += St.PlanBuilds;
    T.PlanHits += St.PlanHits;
    T.PlanBytes += St.PlanBytes;
  }
}

PlanTrace traceWorkload(const Workload &W, vm::VM::EngineKind Engine,
                        bool PlanOn, uint64_t Invokes) {
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  auto E = Ctx.buildDynamic(withPlan(PlanOn));
  E->Machine->Engine = Engine;
  WorkloadSetup S = W.Setup(*E->Machine);
  int FI = E->findFunction(W.RegionFunc);
  EXPECT_GE(FI, 0) << W.Name << ": region function not found";

  PlanTrace T;
  for (uint64_t I = 0; I != Invokes; ++I)
    T.Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs).Bits);

  captureMachine(*E, T);
  T.MemHash = hashRange(*E->Machine, S.OutBase, S.OutLen);
  captureRegions(*E->RT, T);
  return T;
}

void expectIdentical(const PlanTrace &On, const PlanTrace &Off,
                     const std::string &What) {
  EXPECT_EQ(On.ExecCycles, Off.ExecCycles) << What << ": ExecCycles";
  EXPECT_EQ(On.DynCompCycles, Off.DynCompCycles)
      << What << ": DynCompCycles";
  EXPECT_EQ(On.InstrsExecuted, Off.InstrsExecuted)
      << What << ": InstrsExecuted";
  EXPECT_EQ(On.ICacheHits, Off.ICacheHits) << What << ": ICache hits";
  EXPECT_EQ(On.ICacheMisses, Off.ICacheMisses) << What << ": ICache misses";
  EXPECT_EQ(On.Results, Off.Results) << What << ": invocation results";
  EXPECT_EQ(On.FuncCalls, Off.FuncCalls) << What << ": per-function calls";
  EXPECT_EQ(On.FuncInclusive, Off.FuncInclusive)
      << What << ": per-function inclusive cycles";
  EXPECT_EQ(On.MemHash, Off.MemHash) << What << ": output memory";
  EXPECT_EQ(On.Disassembly, Off.Disassembly)
      << What << ": golden disassembly";
  EXPECT_EQ(On.RegionStats, Off.RegionStats)
      << What << ": region counters";
}

class EmitPlanParity : public ::testing::TestWithParam<std::string> {};

// All 5 Table 3 workloads × both VM engines: the plan path must replay
// bit-identical counters and emit byte-identical chains, and it must
// actually engage (builds > 0) when on.
TEST_P(EmitPlanParity, CountersAndDisassemblyIdenticalOnWorkload) {
  const Workload &W = workloads::workloadByName(GetParam());
  uint64_t Invokes = std::min<uint64_t>(W.RegionInvocations, 40);
  for (vm::VM::EngineKind Engine :
       {vm::VM::EngineKind::Legacy, vm::VM::EngineKind::Predecoded}) {
    std::string What =
        W.Name +
        (Engine == vm::VM::EngineKind::Legacy ? " (legacy)" : " (predec)");
    PlanTrace On = traceWorkload(W, Engine, true, Invokes);
    PlanTrace Off = traceWorkload(W, Engine, false, Invokes);
    expectIdentical(On, Off, What);
    EXPECT_GT(On.PlanBuilds, 0u) << What << ": plan path never engaged";
    EXPECT_GT(On.PlanBytes, Off.PlanBytes)
        << What << ": the walk holds key lists only";
  }
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : workloads::allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Table3, EmitPlanParity,
                         ::testing::ValuesIn(workloadNames()));

const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

// Speculation on/off axis: guarded twins synthesize regions through the
// same specializer, and deopt/demotion tears them down. The plan path
// must be invisible to all of it. The query kernel reliably promotes
// (folded loads give it real structural benefit).
PlanTrace traceSpeculative(bool SpecOn, bool PlanOn) {
  const Workload &W = workloads::workloadByName("query");
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  speculate::SpeculationPolicy Policy;
  Policy.Enabled = SpecOn;
  auto E = Ctx.buildSpeculative(Policy, withPlan(PlanOn));
  WorkloadSetup S = W.Setup(*E->Machine);
  int FI = E->findFunction(W.MainFunc);
  EXPECT_GE(FI, 0);

  PlanTrace T;
  // Enough main runs to clear HotCalls, promote, and re-run through the
  // guarded twin at steady state.
  for (int I = 0; I != 3; ++I)
    T.Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), S.MainArgs).Bits);
  captureMachine(*E, T);
  T.MemHash = hashRange(*E->Machine, S.OutBase, S.OutLen);
  captureRegions(E->Spec->runtime(), T);
  if (SpecOn) {
    EXPECT_GE(E->Spec->stats().Promotions, 1u);
  }
  return T;
}

TEST(EmitPlanParity, SpeculativePromotionPathIdentical) {
  for (bool SpecOn : {false, true}) {
    std::string What = SpecOn ? "speculation on" : "speculation off";
    PlanTrace On = traceSpeculative(SpecOn, true);
    PlanTrace Off = traceSpeculative(SpecOn, false);
    expectIdentical(On, Off, What);
    if (SpecOn) {
      EXPECT_GT(On.PlanBuilds, 0u)
          << What << ": twin regions must specialize through plans";
    }
  }
}

// Plan-cache semantics under eviction churn: the plan depends only on the
// immutable generating extension and the core's fixed flags, so capacity
// evictions and code-version churn must never force a rebuild — one build
// per region, every later specialization run a hit.
TEST(EmitPlanCache, OneBuildManyHitsAcrossEvictionChurn) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(SumSrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    runtime::ChainBudget Budget;
    Budget.MaxEntries = 2; // evict aggressively
    auto E = Ctx.buildDynamic(withPlan(PlanOn), vm::CostModel(),
                              vm::ICacheConfig(), Budget);
    int FI = E->findFunction("f");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
    for (int Round = 0; Round != 3; ++Round)
      for (int64_t K : Keys)
        T.Results.push_back(
            E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(K)})
                .Bits);
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    const runtime::RegionStats &St = E->RT->stats(0);
    if (PlanOn) {
      EXPECT_GT(St.Evictions, 0u) << "churn never evicted";
      EXPECT_EQ(St.PlanBuilds, 1u)
          << "eviction churn must not invalidate the plan";
      EXPECT_EQ(St.PlanBuilds + St.PlanHits, St.SpecializationRuns)
          << "every specialization run either builds or hits";
      EXPECT_GT(St.PlanBytes, 0u);
      EXPECT_NE(St.toString().find("plan-builds=1"), std::string::npos);
    }
  }
  expectIdentical(Traces[0], Traces[1], "eviction churn");
}

// Re-entrancy: specializing f executes the static call g(...) at
// specialize time; g carries its own make_static, so the nested run
// re-enters specializeInto — and builds g's plan — while f's plan is
// mid-execution in a Generic (EvalCall) step. Both orders of plan
// construction must nest cleanly and stay bit-identical to the legacy
// walk.
const char *NestedSrc =
    "pure int g(int m) {\n"
    "  int j;\n"
    "  make_static(m, j : cache_all);\n"
    "  int t = 0;\n"
    "  for (j = 0; j < m; j = j + 1) { t = t + j * m; }\n"
    "  return t;\n"
    "}\n"
    "int f(int n) {\n"
    "  make_static(n);\n"
    "  return g(n) + g(n + 1);\n"
    "}";

TEST(EmitPlanReentrancy, NestedStaticCallSpecializesUnderParentPlan) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(NestedSrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("f");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    for (int64_t N : {4, 7, 4})
      T.Results.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(N)})
              .Bits);
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    ASSERT_EQ(E->RT->numRegions(), 2u);
    if (PlanOn) {
      for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord) {
        const runtime::RegionStats &St = E->RT->stats(Ord);
        if (St.SpecializationRuns == 0)
          continue; // region never entered (fully static call folded away)
        EXPECT_EQ(St.PlanBuilds, 1u) << "region " << Ord;
        EXPECT_EQ(St.PlanBuilds + St.PlanHits, St.SpecializationRuns)
            << "region " << Ord;
      }
      EXPECT_GT(Traces[0].PlanBuilds, 1u)
          << "nested region must build its own plan";
    }
  }
  expectIdentical(Traces[0], Traces[1], "nested static call");
}

// Blocks on demand: the plan is created on the region's first
// specialization with no block programs, and a context's program is built
// the first time the context is placed. The static `if` on the key sends
// keys above 5 and keys up to 5 to different contexts, so PlanBytes grows
// when a key reaches a context no earlier key placed — and when it takes
// a guard arm no earlier key took (key 8, a power of two, is the first to
// take the strength-reduction arm of `x * n`).
const char *BranchOnKeySrc = "int f(int n, int x) {\n"
                             "  make_static(n : cache_all);\n"
                             "  int r = 0;\n"
                             "  if (n > 5) { r = x * n + 3; } else { r = x - n; }\n"
                             "  return r;\n"
                             "}";

TEST(EmitPlanCache, BlocksBuiltOnFirstPlacement) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(BranchOnKeySrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("f");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    std::vector<uint64_t> Bytes;
    for (int64_t N : {7, 9, 2, 3, 8}) {
      T.Results.push_back(E->Machine
                              ->run(static_cast<uint32_t>(FI),
                                    {Word::fromInt(N), Word::fromInt(4)})
                              .Bits);
      Bytes.push_back(E->RT->stats(0).PlanBytes);
    }
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    const runtime::RegionStats &St = E->RT->stats(0);
    EXPECT_EQ(St.SpecializationRuns, 5u);
    if (PlanOn) {
      EXPECT_EQ(St.PlanBuilds, 1u) << "one plan per region";
      EXPECT_EQ(St.PlanHits, 4u);
      EXPECT_GT(Bytes[0], 0u);
      EXPECT_EQ(Bytes[1], Bytes[0]) << "key 9 places only key 7's contexts";
      EXPECT_GT(Bytes[2], Bytes[1]) << "key 2 places the else context";
      EXPECT_EQ(Bytes[3], Bytes[2]) << "key 3 places no new context";
      EXPECT_GT(Bytes[4], Bytes[3])
          << "key 8 places no new context but takes the shift arm";
    }
  }
  EXPECT_EQ(Traces[0].Results,
            (std::vector<uint64_t>{31, 39, 2, 1, 35}));
  expectIdentical(Traces[0], Traces[1], "blocks on demand");
}

// Guard arms on demand: `x * n` with n static makes three value tests —
// n == 1 (zero/copy propagation to a move), n == 0 (to a clear) and n a
// power of two (strength reduction to a shift). The first key builds the
// block and the arms it takes; PlanBytes grows again exactly when a key
// takes an arm no earlier key took.
const char *MulByKeySrc = "int f(int n, int x) {\n"
                          "  make_static(n : cache_all);\n"
                          "  return x * n;\n"
                          "}";

TEST(EmitPlanCache, GuardArmsBuiltOnFirstTake) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(MulByKeySrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("f");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    std::vector<uint64_t> Bytes;
    for (int64_t N : {3, 3, 1, 0, 8, 1}) {
      T.Results.push_back(E->Machine
                              ->run(static_cast<uint32_t>(FI),
                                    {Word::fromInt(N), Word::fromInt(5)})
                              .Bits);
      Bytes.push_back(E->RT->stats(0).PlanBytes);
    }
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    if (PlanOn) {
      EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 4u);
      EXPECT_GT(Bytes[0], 0u);
      EXPECT_EQ(Bytes[1], Bytes[0]) << "key 3 again: dispatch hit";
      EXPECT_GT(Bytes[2], Bytes[1]) << "key 1 takes the move arm";
      EXPECT_GT(Bytes[3], Bytes[2]) << "key 0 takes the clear arm";
      EXPECT_GT(Bytes[4], Bytes[3]) << "key 8 takes the shift arm";
      EXPECT_EQ(Bytes[5], Bytes[4]) << "key 1 again: dispatch hit";
    }
  }
  EXPECT_EQ(Traces[0].Results,
            (std::vector<uint64_t>{15, 15, 5, 0, 40, 5}));
  expectIdentical(Traces[0], Traces[1], "guard arms on demand");
}

// Guard budget: each `x * k` term makes up to three value tests, so the
// 256 keys below take 256 distinct paths through a tree of 255 guards,
// well past a block's budget of 96. Arms are built as keys take them until
// the block holds its budget; every path that reaches a new test after
// that runs its remaining ops through Generic steps, and must still emit
// the walk's code.
const char *FourTermsSrc = "int f(int a, int b, int c, int d, int x) {\n"
                           "  make_static(a, b, c, d : cache_all);\n"
                           "  return x * a + x * b + x * c + x * d;\n"
                           "}";

TEST(EmitPlanCache, GuardBudgetFallsBackToTheWalk) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(FourTermsSrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("f");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    for (int64_t Key = 0; Key != 256; ++Key) {
      std::vector<Word> Args;
      for (int Term = 0; Term != 4; ++Term)
        Args.push_back(Word::fromInt((Key >> (2 * Term)) & 3));
      Args.push_back(Word::fromInt(5));
      T.Results.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), Args).Bits);
    }
    captureMachine(*E, T);
    captureRegions(*E->RT, T);
    EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 256u);
  }
  expectIdentical(Traces[0], Traces[1], "guard budget");
}

// Arm order: a plan's arms are built in whatever order keys take them, and
// any order must compose to the walk's code. The kernel makes several
// value tests per key and has no internal promotions, so every key gets
// one chain and dispatch-site numbering cannot depend on the order. Two
// plans see the same keys in opposite orders; each key's chain must
// disassemble exactly as the walk's chain for that key.
const char *ManyGuardsSrc = "int f(int a, int b, int x, int y) {\n"
                            "  make_static(a, b : cache_all);\n"
                            "  int r = x * a + y * b;\n"
                            "  r = r - x * (a - b);\n"
                            "  return r + y / (b + 1) + x % (a + 1);\n"
                            "}";

using KeyPair = std::pair<int64_t, int64_t>;

/// Runs f on each key in \p Keys (plan on or off) and returns every key's
/// chain, without the header line that names the chain by its creation
/// ordinal, plus the run results in \p Results.
std::map<KeyPair, std::string> chainPerKey(const std::vector<KeyPair> &Keys,
                                           bool PlanOn,
                                           std::vector<uint64_t> &Results) {
  std::map<KeyPair, std::string> Chains;
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  EXPECT_TRUE(Ctx.compile(ManyGuardsSrc, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  auto E = Ctx.buildDynamic(withPlan(PlanOn));
  int FI = E->findFunction("f");
  EXPECT_GE(FI, 0);
  std::string Before;
  for (const KeyPair &K : Keys) {
    std::vector<Word> Args = {Word::fromInt(K.first), Word::fromInt(K.second),
                              Word::fromInt(11), Word::fromInt(-6)};
    Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), Args).Bits);
    std::string After = E->RT->disassembleRegion(0);
    EXPECT_EQ(After.compare(0, Before.size(), Before), 0)
        << "a run changed an earlier chain";
    std::string New = After.substr(Before.size());
    Chains[K] = New.substr(New.find('\n') + 1);
    Before = std::move(After);
  }
  EXPECT_EQ(E->RT->stats(0).SpecializationRuns, Keys.size());
  return Chains;
}

TEST(EmitPlanCache, ArmsBuiltInAnyOrderComposeToTheWalk) {
  const std::vector<KeyPair> Keys = {{0, 0}, {1, 1}, {2, 3}, {3, 7}, {1, 0},
                                     {0, 1}, {2, 2}, {4, 3}, {3, 1}, {5, 8}};
  std::vector<KeyPair> Reversed(Keys.rbegin(), Keys.rend());
  std::vector<uint64_t> WalkResults, FwdResults, RevResults;
  auto Walk = chainPerKey(Keys, false, WalkResults);
  auto Fwd = chainPerKey(Keys, true, FwdResults);
  auto Rev = chainPerKey(Reversed, true, RevResults);
  for (const KeyPair &K : Keys) {
    std::string What = "key (" + std::to_string(K.first) + "," +
                       std::to_string(K.second) + ")";
    EXPECT_FALSE(Walk[K].empty()) << What;
    EXPECT_EQ(Fwd[K], Walk[K]) << What << ", forward order";
    EXPECT_EQ(Rev[K], Walk[K]) << What << ", reverse order";
  }
  EXPECT_EQ(FwdResults, WalkResults);
  EXPECT_EQ(std::vector<uint64_t>(RevResults.rbegin(), RevResults.rend()),
            WalkResults);
}

// Same-region re-entrancy: specializing h(n) executes the static call
// h(n - 1), which dispatches on a new key of the same region and
// specializes it while the outer run is still inside the plan's block
// that holds the call. The innermost run (n == 0) is the first to place
// the `return 1` context, so it builds that block program of the plan
// whose other block every enclosing run is executing.
const char *SelfRecursiveSrc = "pure int h(int n) {\n"
                               "  make_static(n : cache_all);\n"
                               "  if (n <= 0) return 1;\n"
                               "  return n * h(n - 1);\n"
                               "}";

TEST(EmitPlanReentrancy, SameRegionNestedRunBuildsBlocksOfRunningPlan) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(SelfRecursiveSrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("h");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    for (int64_t N : {5, 7, 5, 0})
      T.Results.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(N)})
              .Bits);
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    ASSERT_EQ(E->RT->numRegions(), 1u);
    const runtime::RegionStats &St = E->RT->stats(0);
    EXPECT_EQ(St.SpecializationRuns, 8u) << "keys 5..0, then 7 and 6";
    if (PlanOn) {
      EXPECT_EQ(St.PlanBuilds, 1u);
      EXPECT_EQ(St.PlanHits, 7u) << "every nested run reuses the plan";
    }
  }
  EXPECT_EQ(Traces[0].Results, (std::vector<uint64_t>{120, 5040, 120, 1}));
  expectIdentical(Traces[0], Traces[1], "same-region re-entrancy");
}

// Same-region re-entrancy into a block's arms: the context after the
// static `if` makes the static call h(n - 1, n), then multiplies the
// dynamic x by its result r. The outermost run (key 3) builds that block
// up to the first guard on r and enters the call; each nested run places
// the same context, so the runs for keys 1 and 2 build the arms for r == 1,
// r == 2 and the tests between them while the outer run is inside the
// call. Only after the call returns does the outer run take those arms,
// with the block's vectors grown under it.
const char *RecursiveMulSrc = "pure int h(int n, int x) {\n"
                              "  make_static(n : cache_all);\n"
                              "  if (n <= 0) return x;\n"
                              "  return x * h(n - 1, n);\n"
                              "}";

TEST(EmitPlanReentrancy, NestedRunBuildsArmOfRunningBlock) {
  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Ctx.compile(RecursiveMulSrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("h");
    ASSERT_GE(FI, 0);

    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    for (int64_t N : {3, 4, 3, 1})
      T.Results.push_back(E->Machine
                              ->run(static_cast<uint32_t>(FI),
                                    {Word::fromInt(N), Word::fromInt(5)})
                              .Bits);
    captureMachine(*E, T);
    captureRegions(*E->RT, T);

    ASSERT_EQ(E->RT->numRegions(), 1u);
    const runtime::RegionStats &St = E->RT->stats(0);
    EXPECT_EQ(St.SpecializationRuns, 5u) << "keys 3..0, then 4";
    if (PlanOn) {
      EXPECT_EQ(St.PlanBuilds, 1u);
      EXPECT_EQ(St.PlanHits, 4u) << "every nested run reuses the plan";
    }
  }
  EXPECT_EQ(Traces[0].Results, (std::vector<uint64_t>{30, 120, 30, 5}));
  expectIdentical(Traces[0], Traces[1], "nested run builds a running arm");
}

// Div/Rem-by-zero fold guard: with z == 0, zero/copy propagation turns
// `a` into the constant 0, so `a / k` and `a % k` have two constant
// operands and the fold is guarded on k == 0. A zero divisor cannot fold:
// the chain holds the faithful div and rem, which fault only if the arm
// ever runs, as the static build's would. Keys with k == 0 leave that arm
// untaken at run time (d < 0); each guard arm is taken by two keys.
const char *DivByKeySrc =
    "int g(int z, int k, int c, int d) {\n"
    "  make_static(z, k, c : cache_all);\n"
    "  int r = c;\n"
    "  if (d > 0) { int a = d * z; r = a / k + a % k + c; }\n"
    "  return r;\n"
    "}";

TEST(EmitPlanCache, DivRemByZeroFoldGuard) {
  const std::vector<std::vector<int64_t>> Calls = {
      {0, 0, 1, -1}, {0, 3, 2, 2}, {0, 0, 3, -1}, {0, 5, 4, 2}};
  auto argsOf = [](const std::vector<int64_t> &C) {
    std::vector<Word> Args;
    for (int64_t V : C)
      Args.push_back(Word::fromInt(V));
    return Args;
  };
  std::vector<std::string> Errors;
  std::vector<uint64_t> Want;
  {
    core::DycContext Ctx;
    ASSERT_TRUE(Ctx.compile(DivByKeySrc, Errors))
        << (Errors.empty() ? "" : Errors[0]);
    auto E = Ctx.buildStatic();
    int FI = E->findFunction("g");
    ASSERT_GE(FI, 0);
    for (const std::vector<int64_t> &C : Calls)
      Want.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), argsOf(C)).Bits);
  }
  EXPECT_EQ(Want, (std::vector<uint64_t>{1, 2, 3, 4}));

  PlanTrace Traces[2];
  for (bool PlanOn : {true, false}) {
    core::DycContext Ctx;
    ASSERT_TRUE(Ctx.compile(DivByKeySrc, Errors));
    auto E = Ctx.buildDynamic(withPlan(PlanOn));
    int FI = E->findFunction("g");
    ASSERT_GE(FI, 0);
    PlanTrace &T = Traces[PlanOn ? 0 : 1];
    std::string Before;
    for (const std::vector<int64_t> &C : Calls) {
      T.Results.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), argsOf(C)).Bits);
      std::string After = E->RT->disassembleRegion(0);
      std::string Chain = After.substr(Before.size());
      bool ZeroKey = C[1] == 0;
      EXPECT_EQ(Chain.find(" div r") != std::string::npos, ZeroKey)
          << "k=" << C[1] << (PlanOn ? " plan\n" : " walk\n") << Chain;
      EXPECT_EQ(Chain.find(" rem r") != std::string::npos, ZeroKey)
          << "k=" << C[1] << (PlanOn ? " plan\n" : " walk\n") << Chain;
      Before = std::move(After);
    }
    captureMachine(*E, T);
    captureRegions(*E->RT, T);
    EXPECT_EQ(E->RT->stats(0).SpecializationRuns, Calls.size());
  }
  EXPECT_EQ(Traces[0].Results, Want);
  expectIdentical(Traces[0], Traces[1], "div/rem fold guard");
}

// Selection: default flags run every specialization through the plan, and
// the server front end passes the core's plan counters through — summed
// into its snapshot, rendered by toString, and per region.
TEST(EmitPlanSelection, DefaultFlagsRunThroughPlans) {
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(SumSrc, Errors));
  auto E = Ctx.buildDynamic();
  int FI = E->findFunction("f");
  ASSERT_GE(FI, 0);
  E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(5)});
  EXPECT_FALSE(E->RT->core().flags().ReferenceWalk);
  EXPECT_EQ(E->RT->stats(0).PlanBuilds, 1u);
  EXPECT_GT(E->RT->stats(0).PlanBytes, 0u);

  core::DycContext SCtx;
  ASSERT_TRUE(SCtx.compile(SumSrc, Errors));
  server::ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = server::MissPolicy::Block;
  auto Server = SCtx.buildServer(OptFlags(), std::move(Cfg));
  auto Client = Server->makeClientVM();
  int FS = Server->findFunction("f");
  ASSERT_GE(FS, 0);
  // Keys 3 and 9 specialize (a plan build, then a plan hit); the second 3
  // reuses its cached chain.
  for (int64_t K : {3, 9, 3})
    Client->run(static_cast<uint32_t>(FS), {Word::fromInt(K)});
  Server->drain();
  runtime::RegionStats RS = Server->regionStats(0);
  EXPECT_EQ(RS.PlanBuilds, 1u);
  EXPECT_EQ(RS.PlanHits, 1u);
  EXPECT_GT(RS.PlanBytes, 0u);
  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_EQ(S.PlanBuilds, RS.PlanBuilds);
  EXPECT_EQ(S.PlanHits, RS.PlanHits);
  EXPECT_EQ(S.PlanBytes, RS.PlanBytes);
  EXPECT_NE(S.toString().find("plan[builds=1 hits=1 bytes="),
            std::string::npos);
}

} // namespace
