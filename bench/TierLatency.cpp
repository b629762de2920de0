//===- bench/TierLatency.cpp -------------------------------------------------------===//
//
// Client-visible dispatch latency under tiered execution vs synchronous
// specialization. One client VM cycles round-robin through K distinct keys
// of a loop region; every invocation is timed with the host steady clock.
//
//  - MissPolicy::Block: the first call on each key stalls the client for
//    the full specialize+install, so the latency tail (p99/p999) is the
//    specializer cost.
//  - Tiered (async): misses run the generic fallback and promotion happens
//    on the worker pool, so the tail collapses to fallback-execution cost.
//    The price is a later time-to-steady-state (more rounds until every
//    key is served by its installed chain).
//
// Reported per mode: p50/p99/p999 invocation latency, time-to-steady-state
// (elapsed host time until a full round is served entirely from cache
// hits), and steady-state throughput from that point on. `--check` exits
// nonzero unless tiered p99 is strictly better than Block's with no
// steady-state throughput collapse. `--quick` (or DYC_BENCH_QUICK=1)
// shrinks the run for CI; `--json FILE` writes the BENCH_tier.json
// artifact.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"
#include "server/SpecServer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

using namespace dyc;
using namespace dyc::bench;

namespace {

// One specialization per distinct n; the unrolled body makes the
// specializer cost per miss clearly visible next to a generic execution.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

struct ModeResult {
  const char *Mode = "";
  double P50Us = 0, P99Us = 0, P999Us = 0;
  double SteadySeconds = 0;       ///< elapsed until the first all-hit round
  double SteadyInvocsPerSec = 0;  ///< throughput from that round onward
  uint64_t Invocations = 0;
  bool ReachedSteady = false;
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

ModeResult runMode(bool Tiered, int64_t NumKeys, int Rounds,
                   int ThroughputRounds, int64_t NBase, int64_t NStep) {
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  if (!Ctx.compile(SumSrc, Errors))
    fatal("tier-latency source failed to compile");

  server::ServerConfig Cfg;
  Cfg.NumWorkers = 2;
  std::unique_ptr<server::SpecServer> Server;
  if (Tiered) {
    OptFlags Fl;
    // Warm=0: misses go straight to the predecoded generic fallback. The
    // interpreted cold tier would otherwise dominate the tail and this
    // bench isolates async promotion vs blocking specialization.
    Fl.Tier.WarmThreshold = 0;
    Fl.Tier.HotThreshold = 2;
    Server = Ctx.buildTiered(Fl, std::move(Cfg));
  } else {
    Cfg.OnMiss = server::MissPolicy::Block;
    Server = Ctx.buildServer(OptFlags(), std::move(Cfg));
  }
  std::unique_ptr<vm::VM> Client = Server->makeClientVM();
  int F = Server->findFunction("f");
  if (F < 0)
    fatal("tier-latency region not found");

  std::vector<double> LatUs;
  LatUs.reserve(static_cast<size_t>(NumKeys) * Rounds);

  ModeResult R;
  R.Mode = Tiered ? "tiered" : "block";
  uint64_t PrevHits = 0;
  double SteadyAt = -1;
  uint64_t InvocsBeforeSteady = 0;
  auto Start = std::chrono::steady_clock::now();
  for (int Round = 0; Round != Rounds; ++Round) {
    double RoundStart = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
    for (int64_t K = 0; K != NumKeys; ++K) {
      int64_t N = NBase + K * NStep;
      auto T0 = std::chrono::steady_clock::now();
      Word Ret = Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)});
      auto T1 = std::chrono::steady_clock::now();
      if (Ret.asInt() != N * (N - 1) / 2)
        fatal("tier-latency produced a wrong sum");
      LatUs.push_back(
          std::chrono::duration<double, std::micro>(T1 - T0).count());
      // Open-loop pacing: the gap is when background compiles run (on a
      // loaded host the worker pool otherwise timeshares with the client
      // and its quanta pollute the client's samples). Applied to both
      // modes; Block still pays the full specialize inside the sample.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    server::ServerStatsSnapshot S = Server->stats();
    uint64_t Hits = S.CacheHits;
    if (SteadyAt < 0 && Hits - PrevHits == static_cast<uint64_t>(NumKeys)) {
      // Every invocation this round was served by an installed chain:
      // steady state began at the round boundary.
      SteadyAt = RoundStart;
      InvocsBeforeSteady =
          static_cast<uint64_t>(Round) * static_cast<uint64_t>(NumKeys);
    }
    PrevHits = Hits;
  }
  double Total = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  Server->drain();
  (void)InvocsBeforeSteady;

  R.Invocations = LatUs.size();
  R.ReachedSteady = SteadyAt >= 0;
  R.SteadySeconds = R.ReachedSteady ? SteadyAt : Total;

  // Separate throughput phase: everything is installed by now (drained),
  // so both modes run the identical hit path. A longer window here keeps
  // the number stable without diluting the miss fraction the latency
  // percentiles depend on.
  {
    auto T0 = std::chrono::steady_clock::now();
    for (int Round = 0; Round != ThroughputRounds; ++Round)
      for (int64_t K = 0; K != NumKeys; ++K) {
        int64_t N = NBase + K * NStep;
        Word Ret = Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)});
        if (Ret.asInt() != N * (N - 1) / 2)
          fatal("tier-latency produced a wrong sum");
      }
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    if (Wall > 0)
      R.SteadyInvocsPerSec =
          static_cast<double>(ThroughputRounds) *
          static_cast<double>(NumKeys) / Wall;
  }
  std::sort(LatUs.begin(), LatUs.end());
  R.P50Us = percentile(LatUs, 0.50);
  R.P99Us = percentile(LatUs, 0.99);
  R.P999Us = percentile(LatUs, 0.999);
  return R;
}

void printRow(const ModeResult &R) {
  std::printf("  %-8s %10.1f %10.1f %10.1f %12.4f %14.0f %8s\n", R.Mode,
              R.P50Us, R.P99Us, R.P999Us, R.SteadySeconds,
              R.SteadyInvocsPerSec, R.ReachedSteady ? "yes" : "NO");
}

void writeJson(const char *Path, bool Quick, const ModeResult &Block,
               const ModeResult &Tiered, bool P99Improved,
               bool SteadyThroughputOk) {
  JsonReport J;
  J.str("bench", "tier_latency").boolean("quick", Quick).array("modes");
  for (const ModeResult *R : {&Block, &Tiered})
    J.object()
        .str("mode", R->Mode)
        .real("p50_us", R->P50Us, 2)
        .real("p99_us", R->P99Us, 2)
        .real("p999_us", R->P999Us, 2)
        .real("steady_state_seconds", R->SteadySeconds, 6)
        .real("steady_invocations_per_sec", R->SteadyInvocsPerSec, 1)
        .count("invocations", R->Invocations)
        .boolean("reached_steady_state", R->ReachedSteady)
        .close();
  J.close()
      .object("check")
      .boolean("p99_improved", P99Improved)
      .boolean("steady_throughput_ok", SteadyThroughputOk);
  J.save(Path);
  std::printf("\nwrote %s\n", Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  const int64_t NumKeys = Quick ? 16 : 64;
  const int Rounds = Quick ? 20 : 50;
  const int ThroughputRounds = Quick ? 500 : 2000;
  // Trip counts large enough that a blocking specialize (IR walk + emit +
  // admission over the unrolled body) clearly dominates one generic
  // fallback execution of the same loop AND sits well above host
  // scheduler noise, so the p50/p99 gap between the modes is stable.
  const int64_t NBase = 512;
  const int64_t NStep = 8;

  std::printf("tier latency: 1 client, %lld keys round-robin, %d rounds\n",
              static_cast<long long>(NumKeys), Rounds);
  std::printf("  %-8s %10s %10s %10s %12s %14s %8s\n", "mode", "p50-us",
              "p99-us", "p999-us", "steady-sec", "steady-inv/s", "steady");

  ModeResult Block =
      runMode(false, NumKeys, Rounds, ThroughputRounds, NBase, NStep);
  printRow(Block);
  ModeResult Tiered =
      runMode(true, NumKeys, Rounds, ThroughputRounds, NBase, NStep);
  printRow(Tiered);

  bool P99Improved = Tiered.P99Us < Block.P99Us;
  bool SteadyThroughputOk =
      Tiered.ReachedSteady && Block.ReachedSteady &&
      Tiered.SteadyInvocsPerSec >= 0.85 * Block.SteadyInvocsPerSec;
  std::printf("\np99 %s (block %.1fus -> tiered %.1fus), steady-state "
              "throughput %s\n",
              P99Improved ? "improved" : "DID NOT IMPROVE", Block.P99Us,
              Tiered.P99Us, SteadyThroughputOk ? "held" : "REGRESSED");

  if (const char *Path = jsonPath(Argc, Argv))
    writeJson(Path, Quick, Block, Tiered, P99Improved, SteadyThroughputOk);

  if (hasFlag(Argc, Argv, "--check") && !(P99Improved && SteadyThroughputOk))
    return 1;
  return 0;
}
