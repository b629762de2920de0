//===- bench/ServerThroughput.cpp --------------------------------------------------===//
//
// Multi-client scaling of the SpecServer. Two experiments:
//
//  1. Client-thread sweep: a kernel workload dispatched through the
//     service by 1/2/4/8 concurrent client VMs, reporting host wall-clock
//     dispatch throughput. Hits probe a published immutable snapshot with
//     no lock, so throughput should scale with clients; the single
//     specialization lock is off the hot path once the cache is warm.
//
//  2. Capacity sweep: clients cycling through more distinct keys than the
//     per-region budget admits, reporting how throughput degrades as the
//     CLOCK policy thrashes (eviction -> re-dispatch -> respecialize).
//
// `--quick` (or DYC_BENCH_QUICK=1) shrinks both sweeps so the binary can
// run under ThreadSanitizer in CI in seconds. `--json FILE` additionally
// writes the measurements as a JSON document (the CI BENCH_server.json
// artifact).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"
#include "server/SpecServer.h"

#include <chrono>
#include <cstdio>
#include <thread>

using namespace dyc;
using namespace dyc::bench;

namespace {

struct ThreadRow {
  unsigned Threads = 0;
  double InvocationsPerSec = 0;
  double WallSeconds = 0;
  bool OutputsMatch = false;
};

struct CapacityRow {
  size_t MaxEntries = 0; ///< 0 = unbounded
  double InvocationsPerSec = 0;
  uint64_t SpecRuns = 0;
  uint64_t Evictions = 0;
  size_t Resident = 0;
};

std::vector<ThreadRow> threadSweep(uint64_t InvocationsPerThread) {
  const workloads::Workload &W = workloads::workloadByName("dotproduct");
  std::printf("client-thread sweep: workload=%s, %llu invocations/thread\n",
              W.Name.c_str(),
              static_cast<unsigned long long>(InvocationsPerThread));
  std::printf("  %-8s %12s %12s %10s %8s\n", "threads", "invocs/sec",
              "wall-sec", "speedup", "match");

  std::vector<ThreadRow> Rows;
  double Base = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    core::ServerThroughputPerf P = core::measureServerThroughput(
        W, OptFlags(), Threads, InvocationsPerThread);
    if (Threads == 1)
      Base = P.InvocationsPerSec;
    std::printf("  %-8u %12.0f %12.4f %9.2fx %8s\n", Threads,
                P.InvocationsPerSec, P.WallSeconds,
                Base > 0 ? P.InvocationsPerSec / Base : 0.0,
                P.OutputsMatch ? "yes" : "NO");
    Rows.push_back({Threads, P.InvocationsPerSec, P.WallSeconds,
                    P.OutputsMatch});
  }
  return Rows;
}

// A region with one specialization per distinct n; clients rotate through
// `NumKeys` values so a small budget forces steady-state eviction.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

std::vector<CapacityRow> capacitySweep(uint64_t InvocationsPerThread) {
  constexpr unsigned NumThreads = 4;
  constexpr int64_t NumKeys = 16;
  std::printf("\ncapacity sweep: %u threads rotating over %lld keys, "
              "%llu invocations/thread\n",
              NumThreads, static_cast<long long>(NumKeys),
              static_cast<unsigned long long>(InvocationsPerThread));
  std::printf("  %-10s %12s %10s %10s %10s\n", "budget", "invocs/sec",
              "specruns", "evictions", "resident");

  std::vector<CapacityRow> Rows;
  for (size_t MaxEntries : {size_t(0), size_t(16), size_t(8), size_t(4)}) {
    core::DycContext Ctx;
    std::vector<std::string> Errors;
    if (!Ctx.compile(SumSrc, Errors))
      fatal("capacity-sweep source failed to compile");

    server::ServerConfig Cfg;
    Cfg.Budget.MaxEntries = MaxEntries;
    auto Server = Ctx.buildServer(OptFlags(), std::move(Cfg));
    int F = Server->findFunction("f");

    std::vector<std::unique_ptr<vm::VM>> Clients;
    for (unsigned T = 0; T != NumThreads; ++T)
      Clients.push_back(Server->makeClientVM());

    auto Start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> Pool;
      for (unsigned T = 0; T != NumThreads; ++T)
        Pool.emplace_back([&, T] {
          vm::VM &M = *Clients[T];
          for (uint64_t I = 0; I != InvocationsPerThread; ++I) {
            // Offset by thread id so clients are usually on different keys.
            int64_t N = 2 + (I + T * 3) % NumKeys;
            Word R = M.run(static_cast<uint32_t>(F), {Word::fromInt(N)});
            if (R.asInt() != N * (N - 1) / 2)
              fatal("capacity sweep produced a wrong sum");
          }
        });
      for (std::thread &Th : Pool)
        Th.join();
    }
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    Server->drain();

    server::ServerStatsSnapshot S = Server->stats();
    char Budget[32];
    if (MaxEntries)
      std::snprintf(Budget, sizeof(Budget), "%zu", MaxEntries);
    else
      std::snprintf(Budget, sizeof(Budget), "unbounded");
    double PerSec = Wall > 0 ? NumThreads * InvocationsPerThread / Wall : 0.0;
    std::printf("  %-10s %12.0f %10llu %10llu %10zu\n", Budget, PerSec,
                static_cast<unsigned long long>(S.SpecRuns),
                static_cast<unsigned long long>(S.Evictions),
                Server->residentEntries(0));
    Rows.push_back(
        {MaxEntries, PerSec, S.SpecRuns, S.Evictions,
         Server->residentEntries(0)});
  }
  return Rows;
}

void writeJson(const char *Path, bool Quick,
               const std::vector<ThreadRow> &Threads,
               const std::vector<CapacityRow> &Capacity) {
  JsonReport J;
  J.str("bench", "server_throughput").boolean("quick", Quick);
  J.array("thread_sweep");
  for (const ThreadRow &R : Threads)
    J.object()
        .count("threads", R.Threads)
        .real("invocations_per_sec", R.InvocationsPerSec, 1)
        .real("wall_seconds", R.WallSeconds, 6)
        .boolean("outputs_match", R.OutputsMatch)
        .close();
  J.close().array("capacity_sweep");
  for (const CapacityRow &R : Capacity)
    J.object()
        .count("max_entries", R.MaxEntries)
        .real("invocations_per_sec", R.InvocationsPerSec, 1)
        .count("spec_runs", R.SpecRuns)
        .count("evictions", R.Evictions)
        .count("resident", R.Resident)
        .close();
  J.save(Path);
  std::printf("\nwrote %s\n", Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  std::vector<ThreadRow> Threads = threadSweep(Quick ? 50 : 2000);
  std::vector<CapacityRow> Capacity = capacitySweep(Quick ? 200 : 20000);
  if (const char *Path = jsonPath(Argc, Argv))
    writeJson(Path, Quick, Threads, Capacity);
  return 0;
}
