//===- tests/ServerTest.cpp - SpecServer concurrency tests ------------------------===//
//
// Acceptance tests for the concurrent specialization service: bit-identical
// outputs across client threads, exactly-once specialization under racing
// misses, correct respecialization after capacity eviction, the
// static-fallback miss policy, and translation sharing across client VMs
// under eviction churn. The end of the file drives a real workload
// through the multi-client harness.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "server/SpecServer.h"

#include <gtest/gtest.h>

#include <atomic>
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
// distinct n under cache_all.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

/// Spin barrier: arrive, then busy-wait until everyone has. std::barrier
/// is C++20; this keeps the tests on the project's standard.
class SpinBarrier {
public:
  explicit SpinBarrier(unsigned N) : Remaining(N) {}
  void arriveAndWait() {
    Remaining.fetch_sub(1, std::memory_order_acq_rel);
    while (Remaining.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();
  }

private:
  std::atomic<unsigned> Remaining;
};

TEST(SpecServer, BitIdenticalAcrossThreads) {
  const std::vector<int64_t> Keys = {3, 5, 7, 9, 3, 5, 7, 9, 4};

  // Reference: the same key sequence on the single-threaded inline runtime.
  auto RefCtx = compile(SumSrc);
  auto RefE = RefCtx->buildDynamic();
  int RefF = RefE->findFunction("f");
  std::vector<int64_t> Expected;
  for (int64_t N : Keys)
    Expected.push_back(
        RefE->Machine->run(RefF, {Word::fromInt(N)}).asInt());

  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 2;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  ASSERT_GE(F, 0);

  constexpr unsigned NumThreads = 4;
  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (unsigned T = 0; T != NumThreads; ++T)
    Clients.push_back(Server->makeClientVM());

  std::vector<std::vector<int64_t>> Got(NumThreads);
  {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != NumThreads; ++T)
      Pool.emplace_back([&, T] {
        for (int64_t N : Keys)
          Got[T].push_back(
              Clients[T]->run(static_cast<uint32_t>(F), {Word::fromInt(N)})
                  .asInt());
      });
    for (std::thread &Th : Pool)
      Th.join();
  }

  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Expected[I], triangular(Keys[I])); // reference is itself right
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Got[T], Expected) << "client " << T;
  // Exactly one specialization per distinct key (3, 5, 7, 9, 4), no
  // matter how the four clients interleaved.
  EXPECT_EQ(Server->regionStats(0).SpecializationRuns, 5u);
  EXPECT_EQ(Server->stats().Dispatches, NumThreads * Keys.size());
}

TEST(SpecServer, ConcurrentMissesSpecializeOnce) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 2;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  constexpr unsigned NumThreads = 8;
  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (unsigned T = 0; T != NumThreads; ++T)
    Clients.push_back(Server->makeClientVM());

  SpinBarrier Gate(NumThreads);
  std::vector<int64_t> Got(NumThreads);
  {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != NumThreads; ++T)
      Pool.emplace_back([&, T] {
        Gate.arriveAndWait();
        Got[T] = Clients[T]
                     ->run(static_cast<uint32_t>(F), {Word::fromInt(6)})
                     .asInt();
      });
    for (std::thread &Th : Pool)
      Th.join();
  }

  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Got[T], triangular(6)) << "client " << T;
  // All eight racing misses collapsed into one generating-extension run:
  // in-flight dedup catches racers before the job executes, the worker's
  // cache recheck catches racers after.
  EXPECT_EQ(Server->regionStats(0).SpecializationRuns, 1u);
  EXPECT_EQ(Server->stats().SpecRuns, 1u);
  EXPECT_EQ(Server->stats().CacheMisses + Server->stats().CacheHits,
            static_cast<uint64_t>(NumThreads));
}

TEST(SpecServer, EvictionRespecializesCorrectly) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Budget.MaxEntries = 2; // third distinct key forces a CLOCK eviction
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  auto Client = Server->makeClientVM();
  auto Run = [&](int64_t N) {
    return Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt();
  };

  // Two rounds over three keys: every round after the first re-dispatches
  // evicted keys, which must respecialize (never jump to freed code).
  for (int Round = 0; Round != 2; ++Round)
    for (int64_t N : {3, 5, 7})
      EXPECT_EQ(Run(N), triangular(N)) << "round " << Round << " n=" << N;

  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_GE(Server->regionStats(0).Evictions, 1u);
  EXPECT_GT(S.SpecRuns, 3u); // respecialization after eviction happened
  EXPECT_LE(Server->residentEntries(0), 2u);

  // No client is dispatching, so reclamation must succeed and must free
  // the drained evicted chains and the superseded cache snapshots.
  Server->drain();
  size_t SnapshotsFreed = 0, ChainsFreed = 0;
  ASSERT_TRUE(Server->trimQuiescent(&SnapshotsFreed, &ChainsFreed));
  EXPECT_GE(ChainsFreed, 1u);
  EXPECT_GE(SnapshotsFreed, 1u);

  // Dispatching after reclamation still produces correct results.
  for (int64_t N : {7, 5, 3})
    EXPECT_EQ(Run(N), triangular(N));
}

// Eviction churn with several clients: the first client to enter a chain
// publishes its translation and every other client adopts it, so each
// chain is translated once for all four. Every client enters every chain
// before the next miss can evict it (one worker, blocking misses, clients
// taking turns per key).
TEST(SharedTranslations, ServerClientsAdoptEveryChain) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = MissPolicy::Block;
  Cfg.Budget.MaxEntries = 2;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  ASSERT_GE(F, 0);
  auto Static = Ctx->buildStatic();
  int SF = Static->findFunction("f");
  ASSERT_GE(SF, 0);

  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (int I = 0; I != 4; ++I)
    Clients.push_back(Server->makeClientVM());
  const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
  for (int Round = 0; Round != 3; ++Round)
    for (int64_t K : Keys) {
      int64_t Want =
          Static->Machine->run(static_cast<uint32_t>(SF), {Word::fromInt(K)})
              .asInt();
      for (auto &C : Clients)
        EXPECT_EQ(C->run(static_cast<uint32_t>(F), {Word::fromInt(K)})
                      .asInt(),
                  Want)
            << "round " << Round << " n=" << K;
    }
  Server->drain();

  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_GT(S.Evictions, 0u);
  uint64_t Adopts = 0;
  for (auto &C : Clients)
    Adopts += C->decodeAdopts();
  EXPECT_GE(Adopts, 3 * S.ChainsCreated);
  EXPECT_LE(Server->sharedTranslations(), Server->residentEntries(0));
}

TEST(SpecServer, FallbackPolicyServesMissesImmediately) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = MissPolicy::Fallback;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  auto Client = Server->makeClientVM();
  // The miss is served by the statically compiled region — correct result
  // without waiting for the worker.
  EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(9)}).asInt(),
            triangular(9));
  EXPECT_GE(Server->stats().Fallbacks, 1u);

  // Once the background job lands, the same key hits specialized code.
  Server->drain();
  uint64_t HitsBefore = Server->stats().CacheHits;
  EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(9)}).asInt(),
            triangular(9));
  EXPECT_EQ(Server->stats().CacheHits, HitsBefore + 1);
}

TEST(SpecServer, SpecializeTimeLoadsReadSharedMemoryImage) {
  // The region folds t@[b] at specialize time, so the server VM's memory
  // image must match the clients'. ServerConfig::MemoryImage applies one
  // deterministic setup to every VM.
  auto Ctx = compile("int f(int* t, int b) {\n"
                     "  make_static(t, b : cache_all);\n"
                     "  return t@[b] * 2;\n"
                     "}");
  ServerConfig Cfg;
  int64_t Table = -1;
  Cfg.MemoryImage = [&Table](vm::VM &M) {
    int64_t T = M.allocMemory(16);
    for (int I = 0; I != 16; ++I)
      M.memory()[static_cast<size_t>(T + I)] = Word::fromInt(I * 3 + 1);
    Table = T;
  };
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  constexpr unsigned NumThreads = 4;
  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (unsigned T = 0; T != NumThreads; ++T)
    Clients.push_back(Server->makeClientVM());
  ASSERT_GE(Table, 0);

  std::vector<char> OK(NumThreads, 0); // not vector<bool>: bit-packed writes race
  {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != NumThreads; ++T)
      Pool.emplace_back([&, T] {
        bool Good = true;
        for (int Round = 0; Round != 2; ++Round)
          for (int64_t B : {0, 7, 15, 7})
            Good = Good &&
                   Clients[T]
                           ->run(static_cast<uint32_t>(F),
                                 {Word::fromInt(Table), Word::fromInt(B)})
                           .asInt() == (B * 3 + 1) * 2;
        OK[T] = Good;
      });
    for (std::thread &Th : Pool)
      Th.join();
  }
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_TRUE(OK[T]) << "client " << T;
  EXPECT_EQ(Server->regionStats(0).SpecializationRuns, 3u); // b = 0, 7, 15
}

TEST(SpecServer, HarnessMatchesInlineRunOnKernel) {
  // End to end through the measurement harness: a real workload, two
  // client threads, every output checked against the inline runtime.
  const workloads::Workload &W = workloads::workloadByName("dotproduct");
  core::ServerThroughputPerf P =
      core::measureServerThroughput(W, OptFlags(), /*Threads=*/2,
                                    /*InvocationsPerThread=*/3);
  EXPECT_TRUE(P.OutputsMatch);
  EXPECT_EQ(P.Invocations, 6u);
  EXPECT_GT(P.Stats.Dispatches, 0u);
}

TEST(SpecServer, HarnessFallbackPolicyOnKernel) {
  const workloads::Workload &W = workloads::workloadByName("chebyshev");
  ServerConfig Cfg;
  Cfg.OnMiss = MissPolicy::Fallback;
  core::ServerThroughputPerf P = core::measureServerThroughput(
      W, OptFlags(), /*Threads=*/2, /*InvocationsPerThread=*/4,
      std::move(Cfg));
  EXPECT_TRUE(P.OutputsMatch);
}

} // namespace
