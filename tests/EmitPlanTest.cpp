//===- tests/EmitPlanTest.cpp - staged-emit-plan parity tests ----------------------===//
//
// The staged emit plan's hard invariant: plans change how the host walks a
// generating extension, never what the simulated machine observes. These
// tests run every Table 3 workload through both VM engines with the plan
// path on and off and compare the
// complete observable state — simulated counters (DynCompCycles included),
// results, output memory, and the golden disassembly of every region —
// plus the speculation path, plan-cache counter semantics under eviction
// churn, hard-zeroing when the path is off, nested static-call re-entry
// into the specializer while a parent plan is executing, and the
// flag/environment selection rules.
//
//===----------------------------------------------------------------------===//

#include "cogen/EmitPlan.h"
#include "core/Harness.h"
#include "server/SpecServer.h"
#include "speculate/SpeculativeRuntime.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

OptFlags withPlan(bool PlanOn) {
  OptFlags Fl;
  Fl.EmitPlan = PlanOn ? EmitPlanMode::On : EmitPlanMode::Off;
  return Fl;
}

/// RegionStats rendered with the plan block neutralized: the plan counters
/// differ between the two modes by design, everything else must not.
std::string statsSansPlan(runtime::RegionStats St) {
  St.PlanEnabled = false;
  St.PlanBuilds = St.PlanHits = St.PlanBytes = 0;
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
  std::vector<std::string> RegionStats;  ///< per region, plan block zeroed
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
    T.RegionStats.push_back(statsSansPlan(St));
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
    EXPECT_GT(On.PlanBytes, 0u) << What;
    EXPECT_EQ(Off.PlanBuilds + Off.PlanHits + Off.PlanBytes, 0u) << What;
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

// Plan-cache semantics under eviction churn: the plan keys on the
// immutable generating extension plus the flags fingerprint, so capacity
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

// Hard-zero contract when the path is off: no counters, no toString
// suffix, and the server front end forces zeros in both snapshot layers.
TEST(EmitPlanCache, HardZeroAndUnrenderedWhenOff) {
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(SumSrc, Errors));
  auto E = Ctx.buildDynamic(withPlan(false));
  int FI = E->findFunction("f");
  ASSERT_GE(FI, 0);
  E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(7)});
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_FALSE(St.PlanEnabled);
  EXPECT_EQ(St.PlanBuilds + St.PlanHits + St.PlanBytes, 0u);
  EXPECT_EQ(St.toString().find("plan-builds"), std::string::npos);

  for (bool PlanOn : {false, true}) {
    core::DycContext SCtx;
    ASSERT_TRUE(SCtx.compile(SumSrc, Errors));
    server::ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.OnMiss = server::MissPolicy::Block;
    auto Server = SCtx.buildServer(withPlan(PlanOn), std::move(Cfg));
    auto Client = Server->makeClientVM();
    int FS = Server->findFunction("f");
    ASSERT_GE(FS, 0);
    for (int64_t K : {3, 9, 3})
      Client->run(static_cast<uint32_t>(FS), {Word::fromInt(K)});
    Server->drain();
    server::ServerStatsSnapshot S = Server->stats();
    runtime::RegionStats RS = Server->regionStats(0);
    if (PlanOn) {
      EXPECT_TRUE(S.PlanEnabled);
      EXPECT_GT(S.PlanBuilds, 0u);
      EXPECT_NE(S.toString().find("plan["), std::string::npos);
      EXPECT_TRUE(RS.PlanEnabled);
    } else {
      EXPECT_FALSE(S.PlanEnabled);
      EXPECT_EQ(S.PlanBuilds + S.PlanHits + S.PlanBytes, 0u);
      EXPECT_EQ(S.toString().find("plan["), std::string::npos);
      EXPECT_FALSE(RS.PlanEnabled);
      EXPECT_EQ(RS.PlanBuilds + RS.PlanHits + RS.PlanBytes, 0u);
    }
  }
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

// Selection semantics: explicit flag beats the environment; Default
// follows DYC_EMIT_PLAN; the path is on when the variable is unset or
// unrecognized (default-on).
TEST(EmitPlanSelection, FlagAndEnvironmentRules) {
  unsetenv("DYC_EMIT_PLAN");
  EXPECT_TRUE(cogen::resolveEmitPlanEnabled(EmitPlanMode::Default));
  for (const char *Off : {"off", "0", "false"}) {
    setenv("DYC_EMIT_PLAN", Off, 1);
    EXPECT_FALSE(cogen::resolveEmitPlanEnabled(EmitPlanMode::Default))
        << Off;
    EXPECT_TRUE(cogen::resolveEmitPlanEnabled(EmitPlanMode::On))
        << "explicit flag must beat the environment";
  }
  for (const char *On : {"on", "1", "true", "nonsense"}) {
    setenv("DYC_EMIT_PLAN", On, 1);
    EXPECT_TRUE(cogen::resolveEmitPlanEnabled(EmitPlanMode::Default)) << On;
    EXPECT_FALSE(cogen::resolveEmitPlanEnabled(EmitPlanMode::Off))
        << "explicit flag must beat the environment";
  }
  unsetenv("DYC_EMIT_PLAN");

  // The resolved selection reaches RegionStats: default flags on a fresh
  // core engage the plan path (default-on).
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(SumSrc, Errors));
  auto E = Ctx.buildDynamic();
  int FI = E->findFunction("f");
  ASSERT_GE(FI, 0);
  E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(5)});
  EXPECT_TRUE(E->RT->stats(0).PlanEnabled);
  EXPECT_EQ(E->RT->stats(0).PlanBuilds, 1u);
}

} // namespace
