//===- tests/TierTest.cpp - Tiered execution tests --------------------------------===//
//
// Acceptance tests for the tier controller and the asynchronous promotion
// path: a synchronously-installing tiered server is bit-identical to the
// eager MissPolicy::Block configuration (cycles, counters, and generated
// chains) on the paper's workloads under both engines;
// realistic thresholds converge to byte-identical chains with identical
// steady-state costs; OSR entry picks a freshly installed chain up at a
// back edge mid-loop, not at the next call; and eviction racing a
// promotion stays sound.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "server/SpecServer.h"
#include "tier/TierController.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace dyc;
using server::MissPolicy;
using server::ServerConfig;
using server::SpecServer;

namespace {

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

// Triangular-sum region: f(n) = 0 + 1 + ... + n-1, one specialization per
// distinct n under cache_all. Completely unrolled (i is static), so it has
// no OSR entry points — the tiers and counters are what is under test.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

// Dynamic-trip-count loop over a static multiplier: the loop head stays a
// single residual block (i is dynamic, no unrolling), so a chain installed
// mid-run exposes an OSR entry the spinning fallback frame can transfer to.
const char *LoopSrc = "int f(int n, int k) {\n"
                      "  make_static(k : cache_all);\n"
                      "  int i;\n"
                      "  int s = 0;\n"
                      "  for (i = 0; i < n; i = i + 1) { s = s + k + i; }\n"
                      "  return s;\n"
                      "}";

int64_t loopSum(int64_t N, int64_t K) { return N * K + triangular(N); }

/// Eager reference configuration: block on every miss, one worker.
ServerConfig eagerConfig() {
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = MissPolicy::Block;
  return Cfg;
}

/// Tiered flags with scripted thresholds.
OptFlags tieredFlags(uint32_t Warm, uint32_t Hot, bool Sync) {
  OptFlags Fl;
  Fl.Tier.WarmThreshold = Warm;
  Fl.Tier.HotThreshold = Hot;
  Fl.Tier.SyncInstall = Sync;
  return Fl;
}

struct RunTrace {
  std::vector<int64_t> Results;
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  uint64_t ICacheHits = 0;
  uint64_t ICacheMisses = 0;
  std::vector<std::string> Disasm; ///< per-region chain dumps
};

/// Runs a workload's region function \p Invocations times on one client.
RunTrace runWorkload(SpecServer &Server, const workloads::Workload &W,
                     const workloads::WorkloadSetup &S, uint64_t Invocations,
                     vm::VM::EngineKind Engine) {
  std::unique_ptr<vm::VM> Client = Server.makeClientVM();
  Client->Engine = Engine;
  int F = Server.findFunction(W.RegionFunc);
  EXPECT_GE(F, 0) << W.Name;
  RunTrace T;
  for (uint64_t I = 0; I != Invocations; ++I)
    T.Results.push_back(
        Client->run(static_cast<uint32_t>(F), S.RegionArgs).asInt());
  T.ExecCycles = Client->execCycles();
  T.DynCompCycles = Client->dynCompCycles();
  T.InstrsExecuted = Client->instrsExecuted();
  T.ICacheHits = Client->icache().hits();
  T.ICacheMisses = Client->icache().misses();
  for (size_t Ord = 0; Ord != Server.numRegions(); ++Ord)
    T.Disasm.push_back(Server.disassembleRegion(Ord));
  return T;
}

void expectTracesEqual(const RunTrace &A, const RunTrace &B,
                       const std::string &What) {
  EXPECT_EQ(A.Results, B.Results) << What;
  EXPECT_EQ(A.ExecCycles, B.ExecCycles) << What;
  EXPECT_EQ(A.DynCompCycles, B.DynCompCycles) << What;
  EXPECT_EQ(A.InstrsExecuted, B.InstrsExecuted) << What;
  EXPECT_EQ(A.ICacheHits, B.ICacheHits) << What;
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses) << What;
  EXPECT_EQ(A.Disasm, B.Disasm) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-identity against eager specialization.
//===----------------------------------------------------------------------===//

// With thresholds at zero and synchronous installs, every miss takes the
// exact MissPolicy::Block code path — so a tiered run of each application
// workload must be bit-identical to the eager run: same results, same
// simulated accounts, same chains, same core server counters. Both
// engines.
TEST(Tier, SyncZeroThresholdsMatchesEagerOnWorkloads) {
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    if (W.IsKernel)
      continue;
    for (vm::VM::EngineKind Engine :
         {vm::VM::EngineKind::Legacy, vm::VM::EngineKind::Predecoded}) {
      std::string What =
          W.Name +
          (Engine == vm::VM::EngineKind::Legacy ? "/legacy" : "/predecoded");
      const uint64_t Invocations = 20;

      core::DycContext EagerCtx;
      core::compileWorkload(W, EagerCtx);
      workloads::WorkloadSetup Setup;
      ServerConfig ECfg = eagerConfig();
      ECfg.MemoryImage = [&](vm::VM &V) { Setup = W.Setup(V); };
      auto Eager = EagerCtx.buildServer(OptFlags(), std::move(ECfg));
      RunTrace ERun = runWorkload(*Eager, W, Setup, Invocations, Engine);

      core::DycContext TierCtx;
      core::compileWorkload(W, TierCtx);
      ServerConfig TCfg = eagerConfig();
      TCfg.MemoryImage = [&](vm::VM &V) { Setup = W.Setup(V); };
      auto Tiered = TierCtx.buildTiered(tieredFlags(0, 0, /*Sync=*/true),
                                        std::move(TCfg));
      RunTrace TRun = runWorkload(*Tiered, W, Setup, Invocations, Engine);

      expectTracesEqual(ERun, TRun, What);

      // Core service counters are unchanged by tiering; the tier
      // counters record what the controller saw.
      server::ServerStatsSnapshot ES = Eager->stats();
      server::ServerStatsSnapshot TS = Tiered->stats();
      EXPECT_EQ(ES.Dispatches, TS.Dispatches) << What;
      EXPECT_EQ(ES.CacheHits, TS.CacheHits) << What;
      EXPECT_EQ(ES.CacheMisses, TS.CacheMisses) << What;
      EXPECT_EQ(ES.SpecRuns, TS.SpecRuns) << What;
      EXPECT_EQ(ES.JobsEnqueued, TS.JobsEnqueued) << What;
      EXPECT_EQ(ES.Fallbacks, TS.Fallbacks) << What;
      EXPECT_FALSE(ES.TierEnabled) << What;
      EXPECT_TRUE(TS.TierEnabled) << What;
      EXPECT_EQ(TS.HotInstalls, TS.SpecRuns) << What;
      EXPECT_EQ(TS.ColdExecs, 0u) << What;
      EXPECT_EQ(TS.WarmExecs, 0u) << What;
    }
  }
}

// Realistic thresholds with synchronous installs: the first misses run
// cold (single-stepped) and warm (predecoded) generic code, later misses
// install. Once every key is resident, the tiered server holds chains
// byte-identical to the eager server's and each further round costs
// exactly the same simulated cycles.
TEST(Tier, RealisticThresholdsConvergeToEagerSteadyState) {
  const std::vector<int64_t> Keys = {3, 5, 7, 9};

  auto EagerCtx = compile(SumSrc);
  auto Eager = EagerCtx->buildServer(OptFlags(), eagerConfig());
  int EF = Eager->findFunction("f");
  ASSERT_GE(EF, 0);

  auto TierCtx = compile(SumSrc);
  auto Tiered =
      TierCtx->buildTiered(tieredFlags(2, 4, /*Sync=*/true), eagerConfig());
  int TF = Tiered->findFunction("f");
  ASSERT_GE(TF, 0);

  std::unique_ptr<vm::VM> EClient = Eager->makeClientVM();
  std::unique_ptr<vm::VM> TClient = Tiered->makeClientVM();

  auto Round = [&](vm::VM &Client, int F) {
    std::vector<int64_t> R;
    for (int64_t K : Keys)
      R.push_back(
          Client.run(static_cast<uint32_t>(F), {Word::fromInt(K)}).asInt());
    return R;
  };

  // Warm-up: heat crosses cold -> warm -> hot; every key eventually
  // installs. Results are bit-identical in every tier.
  for (unsigned R = 0; R != 4; ++R) {
    std::vector<int64_t> ER = Round(*EClient, EF);
    std::vector<int64_t> TR = Round(*TClient, TF);
    EXPECT_EQ(ER, TR) << "round " << R;
    for (size_t I = 0; I != Keys.size(); ++I)
      EXPECT_EQ(ER[I], triangular(Keys[I]));
  }

  // Converged: same chains, byte for byte. Single-client misses arrive in
  // the same order in both servers, so chain creation order — and with it
  // every simulated code address — matches.
  EXPECT_EQ(Eager->disassembleRegion(0), Tiered->disassembleRegion(0));
  EXPECT_EQ(Eager->regionStats(0).SpecializationRuns,
            Tiered->regionStats(0).SpecializationRuns);

  // Steady state: per-round simulated cost is bit-identical from here on.
  for (unsigned R = 0; R != 3; ++R) {
    uint64_t EBefore = EClient->execCycles();
    uint64_t TBefore = TClient->execCycles();
    EXPECT_EQ(Round(*EClient, EF), Round(*TClient, TF));
    EXPECT_EQ(EClient->execCycles() - EBefore,
              TClient->execCycles() - TBefore)
        << "steady-state round " << R;
  }

  // The controller saw the transitions exactly once.
  server::ServerStatsSnapshot TS = Tiered->stats();
  EXPECT_TRUE(TS.TierEnabled);
  EXPECT_EQ(TS.WarmPromotions, 1u);
  EXPECT_EQ(TS.HotPromotions, 1u);
  EXPECT_EQ(TS.ColdExecs, 2u);  // misses 1-2 (heat 1, 2)
  EXPECT_EQ(TS.WarmExecs, 2u);  // misses 3-4 (heat 3, 4)
  EXPECT_EQ(TS.FallbacksNotRequested, 4u);
  runtime::RegionStats RS = Tiered->regionStats(0);
  EXPECT_TRUE(RS.TierEnabled);
  EXPECT_EQ(RS.ColdExecs, 2u);
  EXPECT_NE(RS.toString().find("cold=2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tier progression counters.
//===----------------------------------------------------------------------===//

// Distinct keys so every call misses: the per-region heat walks the region
// cold -> warm -> hot deterministically, and each counter lands exactly.
TEST(Tier, CountersProgressDeterministically) {
  auto Ctx = compile(SumSrc);
  OptFlags Fl = tieredFlags(1, 3, /*Sync=*/false);
  Fl.Tier.MaxInFlightCompiles = 0; // unlimited: no admission skips
  ServerConfig Cfg;
  Cfg.NumWorkers = 2;
  auto Server = Ctx->buildTiered(Fl, std::move(Cfg));
  int F = Server->findFunction("f");
  ASSERT_GE(F, 0);

  std::unique_ptr<vm::VM> Client = Server->makeClientVM();
  for (int64_t K = 1; K <= 10; ++K)
    EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(K)})
                  .asInt(),
              triangular(K));
  Server->drain();

  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_TRUE(S.TierEnabled);
  EXPECT_EQ(S.Dispatches, 10u);
  EXPECT_EQ(S.CacheMisses, 10u);
  EXPECT_EQ(S.ColdExecs, 1u);       // heat 1
  EXPECT_EQ(S.WarmExecs, 2u);       // heat 2, 3
  EXPECT_EQ(S.WarmPromotions, 1u);  // heat 2 crossed WarmThreshold
  EXPECT_EQ(S.HotPromotions, 1u);   // heat 4 crossed HotThreshold
  EXPECT_EQ(S.JobsEnqueued, 7u);    // heat 4..10, distinct keys
  EXPECT_EQ(S.HotInstalls, 7u);
  EXPECT_EQ(S.Fallbacks, 10u);      // async: every miss fell back
  EXPECT_EQ(S.FallbacksNotRequested, 3u); // cold/warm requested nothing
  EXPECT_EQ(S.FallbacksInFlight, 7u);
  EXPECT_EQ(S.FallbacksFailed, 0u);
  EXPECT_EQ(S.CompileQueueDepth, 0u); // drained
  // The invariant the split must keep.
  EXPECT_EQ(S.FallbacksInFlight + S.FallbacksFailed +
                S.FallbacksNotRequested,
            S.Fallbacks);

  // Once installed, re-running a key is a plain cache hit.
  EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(9)})
                .asInt(),
            triangular(9));
  EXPECT_EQ(Server->stats().CacheHits, 1u);
}

//===----------------------------------------------------------------------===//
// OSR: mid-loop entry into a freshly installed chain.
//===----------------------------------------------------------------------===//

// The client enters a long dynamic-trip loop through the fallback path
// while the only worker is held; once released, the compile lands and the
// frame must pick the chain up at the loop back edge — within the same
// call, not on a later one.
TEST(Tier, OsrEntersMidLoop) {
  const int64_t N = 8000000, K = 7;

  auto Ctx = compile(LoopSrc);
  OptFlags Fl = tieredFlags(0, 0, /*Sync=*/false); // born hot, async
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.HoldCompiles = std::make_shared<std::atomic<bool>>(true);
  auto Hold = Cfg.HoldCompiles;
  auto Server = Ctx->buildTiered(Fl, std::move(Cfg));
  int F = Server->findFunction("f");
  ASSERT_GE(F, 0);

  std::unique_ptr<vm::VM> Client = Server->makeClientVM();
  int64_t Result = 0;
  std::thread Runner([&] {
    Result = Client
                 ->run(static_cast<uint32_t>(F),
                       {Word::fromInt(N), Word::fromInt(K)})
                 .asInt();
  });

  // Wait until the frame is demonstrably spinning at the armed back edge,
  // then let the compile land.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Server->stats().OsrPolls < 10 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  EXPECT_GE(Server->stats().OsrPolls, 10u) << "frame never reached a poll";
  Hold->store(false, std::memory_order_release);
  Runner.join();
  Server->drain();

  EXPECT_EQ(Result, loopSum(N, K));

  server::ServerStatsSnapshot S = Server->stats();
  // One trap dispatch (the miss), no cache hit: the chain was entered at
  // the back edge inside that same call, not via a second dispatch.
  EXPECT_EQ(S.Dispatches, 1u);
  EXPECT_EQ(S.CacheMisses, 1u);
  EXPECT_EQ(S.CacheHits, 0u);
  EXPECT_EQ(S.OsrEntries, 1u);
  EXPECT_GE(S.OsrPolls, 10u);
  EXPECT_EQ(S.FallbacksInFlight, 1u);
  EXPECT_EQ(S.HotInstalls, 1u);
  runtime::RegionStats RS = Server->regionStats(0);
  EXPECT_EQ(RS.OsrEntries, 1u);
  EXPECT_NE(RS.toString().find("osr=1"), std::string::npos);

  // The next call with the same key is a plain hit — and bit-correct.
  EXPECT_EQ(Client
                ->run(static_cast<uint32_t>(F),
                      {Word::fromInt(100), Word::fromInt(K)})
                .asInt(),
            loopSum(100, K));
  EXPECT_EQ(Server->stats().CacheHits, 1u);
}

// OSR transfer must produce the same values the fallback would have: run
// the same call on a plain static build and compare.
TEST(Tier, OsrResultMatchesStatic) {
  const int64_t N = 3000000, K = 11;

  auto RefCtx = compile(LoopSrc);
  auto RefE = RefCtx->buildStatic();
  int64_t Expected =
      RefE->Machine
          ->run(static_cast<uint32_t>(RefE->findFunction("f")),
                {Word::fromInt(N), Word::fromInt(K)})
          .asInt();
  EXPECT_EQ(Expected, loopSum(N, K));

  auto Ctx = compile(LoopSrc);
  OptFlags Fl = tieredFlags(0, 0, /*Sync=*/false);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildTiered(Fl, std::move(Cfg));
  int F = Server->findFunction("f");

  // No hold: the compile races the loop. Whether the transfer happens on
  // this host is timing; the result must be right either way.
  std::unique_ptr<vm::VM> Client = Server->makeClientVM();
  EXPECT_EQ(Client
                ->run(static_cast<uint32_t>(F),
                      {Word::fromInt(N), Word::fromInt(K)})
                .asInt(),
            Expected);
  Server->drain();
}

//===----------------------------------------------------------------------===//
// Eviction racing promotion.
//===----------------------------------------------------------------------===//

// A one-entry budget forces every new key to evict the previous chain
// while other clients' compiles (and armed OSR watches) are still in
// flight. Results must stay bit-correct throughout, and the books must
// balance after a drain.
TEST(Tier, EvictionDuringPromotionStaysSound) {
  auto Ctx = compile(SumSrc);
  OptFlags Fl = tieredFlags(0, 0, /*Sync=*/false);
  Fl.Tier.MaxInFlightCompiles = 0;
  ServerConfig Cfg;
  Cfg.NumWorkers = 2;
  Cfg.Budget.MaxEntries = 1;
  auto Server = Ctx->buildTiered(Fl, std::move(Cfg));
  int F = Server->findFunction("f");
  ASSERT_GE(F, 0);

  constexpr unsigned NumThreads = 4, Rounds = 6;
  const std::vector<int64_t> Keys = {3, 4, 5, 6, 7, 8};
  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (unsigned T = 0; T != NumThreads; ++T)
    Clients.push_back(Server->makeClientVM());

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != NumThreads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R != Rounds; ++R)
        for (int64_t K : Keys)
          if (Clients[T]
                  ->run(static_cast<uint32_t>(F), {Word::fromInt(K)})
                  .asInt() != triangular(K))
            Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &Th : Pool)
    Th.join();
  Server->drain();

  EXPECT_EQ(Failures.load(), 0u);
  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_GT(S.Evictions, 0u) << "budget of one never evicted?";
  EXPECT_EQ(S.Dispatches, NumThreads * Rounds * Keys.size());
  EXPECT_EQ(S.FallbacksInFlight + S.FallbacksFailed +
                S.FallbacksNotRequested,
            S.Fallbacks);
  EXPECT_LE(Server->residentEntries(0), 1u);
}
