//===- bench/TailLatency.cpp -------------------------------------------------------===//
//
// Multi-tenant tail-latency harness: a trace-driven open-loop load
// generator. A simulated population of clients (millions in the full
// run) issues requests against the multi-tenant SpecServer; every client
// maps to one of a few tenants, and key popularity is Zipfian, so a hot
// head of keys is shared by everyone while a long tail of cold keys
// forces compiles — and, in the second phase, eviction churn.
//
// Open-loop means every request has a *scheduled* arrival time on a fixed
// interval; latency is measured from the scheduled arrival to completion,
// so a request stuck behind a blocking compile inherits the queueing
// delay — the honest tail, not the closed-loop one.
//
// Two phases over the identical per-tenant trace:
//  - dedup: no eviction budget. The gate behind `--check`: the chain
//    store compiles each unique key exactly once no matter how many
//    tenants request it (global SpecRuns == unique keys, DedupHits ==
//    (tenants-1) * unique keys), and every tenant's ledger and simulated
//    machine counters are bit-identical to a dedicated single-tenant
//    server replaying the same trace.
//  - evict: a small per-tenant residency quota forces CLOCK eviction and
//    cross-tenant refcount churn; the latency percentiles show what the
//    recompile tail costs.
//
// `--quick` (or DYC_BENCH_QUICK=1) shrinks the run for CI; `--json FILE`
// writes the BENCH_tail.json artifact; `--check` exits nonzero if the
// dedup or parity gate fails.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"
#include "server/SpecServer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

using namespace dyc;
using namespace dyc::bench;

namespace {

const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

/// xorshift64* — deterministic across hosts, like the repo's other RNGs.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dULL;
  }
  double unit() { // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1p-53;
  }
};

/// Zipfian key sampler over ranks 1..N (exponent S), inverse-CDF over the
/// precomputed cumulative weights.
struct Zipf {
  std::vector<double> Cum;
  Zipf(size_t N, double S) {
    Cum.reserve(N);
    double Total = 0;
    for (size_t R = 1; R <= N; ++R) {
      Total += 1.0 / std::pow(static_cast<double>(R), S);
      Cum.push_back(Total);
    }
    for (double &C : Cum)
      C /= Total;
  }
  size_t draw(Rng &R) const {
    double U = R.unit();
    return static_cast<size_t>(
        std::lower_bound(Cum.begin(), Cum.end(), U) - Cum.begin());
  }
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

struct PhaseResult {
  const char *Phase = "";
  double P50Us = 0, P99Us = 0, P999Us = 0;
  uint64_t Requests = 0;
  uint64_t SpecRuns = 0, DedupHits = 0, StoreChains = 0, Evictions = 0;
};

/// The ledger fields of the tenant-parity contract (the counters a
/// dedicated single-tenant server replaying the trace must match).
bool ledgerEq(const server::ServerStatsSnapshot &A,
              const server::ServerStatsSnapshot &B) {
  return A.Dispatches == B.Dispatches && A.CacheHits == B.CacheHits &&
         A.CacheMisses == B.CacheMisses && A.Fallbacks == B.Fallbacks &&
         A.JobsEnqueued == B.JobsEnqueued &&
         A.JobsCoalesced == B.JobsCoalesced && A.SpecRuns == B.SpecRuns &&
         A.Evictions == B.Evictions && A.ChainsCreated == B.ChainsCreated &&
         A.QuotaRejections == B.QuotaRejections;
}

/// Replays the trace through T tenants round-robin under an open-loop
/// arrival schedule; fills latencies and returns the final global stats.
PhaseResult runPhase(const char *Phase, core::DycContext &Ctx,
                     const std::vector<int64_t> &Keys, unsigned Tenants,
                     size_t MaxEntries, double StepUs) {
  server::ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Budget.MaxEntries = MaxEntries;
  std::unique_ptr<server::SpecServer> Server =
      Ctx.buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  if (F < 0)
    fatal("tail-latency region not found");
  std::vector<std::unique_ptr<vm::VM>> Clients;
  for (unsigned T = 1; T <= Tenants; ++T)
    Clients.push_back(Server->makeClientVM(T));

  std::vector<double> LatUs;
  LatUs.reserve(Keys.size() * Tenants);
  auto Start = std::chrono::steady_clock::now();
  uint64_t Req = 0;
  for (size_t I = 0; I != Keys.size(); ++I) {
    for (unsigned T = 0; T != Tenants; ++T, ++Req) {
      double ScheduledUs = static_cast<double>(Req) * StepUs;
      for (;;) { // open loop: wait for the scheduled arrival, never ahead
        double NowUs = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
        if (NowUs >= ScheduledUs)
          break;
      }
      Word Ret = Clients[T]->run(static_cast<uint32_t>(F),
                                 {Word::fromInt(Keys[I])});
      if (Ret.asInt() != triangular(Keys[I]))
        fatal("tail-latency produced a wrong sum");
      double DoneUs = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
      LatUs.push_back(DoneUs - ScheduledUs);
    }
  }
  Server->drain();

  PhaseResult R;
  R.Phase = Phase;
  R.Requests = Req;
  server::ServerStatsSnapshot S = Server->stats();
  R.SpecRuns = S.SpecRuns;
  R.DedupHits = S.DedupHits;
  R.StoreChains = S.StoreChains;
  R.Evictions = S.Evictions;
  std::sort(LatUs.begin(), LatUs.end());
  R.P50Us = percentile(LatUs, 0.50);
  R.P99Us = percentile(LatUs, 0.99);
  R.P999Us = percentile(LatUs, 0.999);
  return R;
}

void printRow(const PhaseResult &R) {
  std::printf("  %-6s %9llu %9.1f %9.1f %9.1f %8llu %8llu %8llu %8llu\n",
              R.Phase, static_cast<unsigned long long>(R.Requests), R.P50Us,
              R.P99Us, R.P999Us,
              static_cast<unsigned long long>(R.SpecRuns),
              static_cast<unsigned long long>(R.DedupHits),
              static_cast<unsigned long long>(R.StoreChains),
              static_cast<unsigned long long>(R.Evictions));
}

void writeJson(const char *Path, bool Quick, unsigned Tenants,
               uint64_t ClientSpace, uint64_t UniqueKeys,
               const PhaseResult &Dedup, const PhaseResult &Evict,
               bool DedupOk, bool ParityOk) {
  JsonReport J;
  J.str("bench", "tail_latency")
      .boolean("quick", Quick)
      .count("tenants", Tenants)
      .count("simulated_clients", ClientSpace)
      .count("unique_keys", UniqueKeys)
      .array("phases");
  for (const PhaseResult *R : {&Dedup, &Evict})
    J.object()
        .str("phase", R->Phase)
        .count("requests", R->Requests)
        .real("p50_us", R->P50Us, 2)
        .real("p99_us", R->P99Us, 2)
        .real("p999_us", R->P999Us, 2)
        .count("spec_runs", R->SpecRuns)
        .count("dedup_hits", R->DedupHits)
        .count("store_chains", R->StoreChains)
        .count("evictions", R->Evictions)
        .close();
  J.close()
      .object("check")
      .boolean("dedup_ok", DedupOk)
      .boolean("tenant_parity_ok", ParityOk);
  J.save(Path);
  std::printf("\nwrote %s\n", Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  const unsigned Tenants = Quick ? 2 : 4;
  const uint64_t ClientSpace = Quick ? 100000 : 4000000;
  const size_t NumKeys = Quick ? 32 : 256;
  const size_t Requests = Quick ? 1500 : 20000; // per tenant
  const size_t MaxEntries = Quick ? 8 : 32;     // evict-phase quota
  const int64_t NBase = 32;

  // The trace: every request names a simulated client (Zipf-independent,
  // uniform over the population — it decides nothing but shows the
  // request's origin in a real deployment) and a Zipf-ranked key. All
  // tenants replay the identical key sequence; that is what makes
  // "identical workloads -> one chain per unique key" checkable.
  Rng R(0x7a11);
  Zipf Z(NumKeys, 1.1);
  std::vector<int64_t> Keys;
  Keys.reserve(Requests);
  uint64_t ClientsTouched = 0;
  for (size_t I = 0; I != Requests; ++I) {
    ClientsTouched += R.next() % ClientSpace != 0; // draw a client id
    Keys.push_back(NBase + static_cast<int64_t>(Z.draw(R)));
  }
  (void)ClientsTouched;
  uint64_t UniqueKeys = 0;
  {
    std::vector<int64_t> Sorted = Keys;
    std::sort(Sorted.begin(), Sorted.end());
    UniqueKeys = static_cast<uint64_t>(
        std::unique(Sorted.begin(), Sorted.end()) - Sorted.begin());
  }

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  if (!Ctx.compile(SumSrc, Errors))
    fatal("tail-latency source failed to compile");

  // Dedicated single-tenant reference for the parity gate: the same
  // trace, one tenant, its own server.
  server::ServerStatsSnapshot RefStats;
  uint64_t RefExecCycles = 0, RefIMisses = 0;
  {
    server::ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    std::unique_ptr<server::SpecServer> Ref =
        Ctx.buildServer(OptFlags(), std::move(Cfg));
    std::unique_ptr<vm::VM> VM = Ref->makeClientVM();
    int F = Ref->findFunction("f");
    for (int64_t K : Keys)
      if (VM->run(static_cast<uint32_t>(F), {Word::fromInt(K)}).asInt() !=
          triangular(K))
        fatal("tail-latency reference produced a wrong sum");
    RefStats = Ref->stats();
    RefExecCycles = VM->execCycles();
    RefIMisses = VM->icache().misses();
  }

  // Calibrate the open-loop arrival interval to ~2x a warm cache hit on a
  // throwaway server, so the schedule is feasible in steady state and
  // compile stalls show up as queueing delay rather than a permanently
  // growing backlog.
  double StepUs = 2.0;
  {
    server::ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    std::unique_ptr<server::SpecServer> Cal =
        Ctx.buildServer(OptFlags(), std::move(Cfg));
    std::unique_ptr<vm::VM> VM = Cal->makeClientVM();
    int F = Cal->findFunction("f");
    VM->run(static_cast<uint32_t>(F), {Word::fromInt(NBase)});
    auto C0 = std::chrono::steady_clock::now();
    for (int I = 0; I != 200; ++I)
      VM->run(static_cast<uint32_t>(F), {Word::fromInt(NBase)});
    double WarmUs = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - C0)
                        .count() /
                    200.0;
    StepUs = std::max(2.0, 2.0 * WarmUs);
  }

  std::printf("tail latency: %u tenants, %llu simulated clients, "
              "%zu reqs/tenant, %llu unique keys (zipf 1.1)\n",
              Tenants, static_cast<unsigned long long>(ClientSpace),
              Requests, static_cast<unsigned long long>(UniqueKeys));
  std::printf("  %-6s %9s %9s %9s %9s %8s %8s %8s %8s\n", "phase", "reqs",
              "p50-us", "p99-us", "p999-us", "runs", "dedup", "store",
              "evict");

  PhaseResult Dedup = runPhase("dedup", Ctx, Keys, Tenants, 0, StepUs);
  printRow(Dedup);
  PhaseResult Evict =
      runPhase("evict", Ctx, Keys, Tenants, MaxEntries, StepUs);
  printRow(Evict);

  // Gates. Dedup: one compile per unique (region, key, flags) across all
  // tenants. Parity: re-run one more multi-tenant server tenant-major and
  // compare every tenant against the dedicated reference.
  bool DedupOk = Dedup.SpecRuns == UniqueKeys &&
                 Dedup.StoreChains == UniqueKeys &&
                 Dedup.DedupHits == (Tenants - 1) * UniqueKeys;
  bool ParityOk = true;
  {
    server::ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    std::unique_ptr<server::SpecServer> Server =
        Ctx.buildMultiTenant(OptFlags(), std::move(Cfg));
    int F = Server->findFunction("f");
    for (unsigned T = 1; T <= Tenants; ++T) {
      std::unique_ptr<vm::VM> VM = Server->makeClientVM(T);
      for (int64_t K : Keys)
        VM->run(static_cast<uint32_t>(F), {Word::fromInt(K)});
      ParityOk = ParityOk &&
                 ledgerEq(Server->tenantStats(T), RefStats) &&
                 VM->execCycles() == RefExecCycles &&
                 VM->icache().misses() == RefIMisses;
    }
  }

  std::printf("\ndedup gate %s (%llu unique keys -> %llu compiles, "
              "%llu adoptions), tenant parity %s\n",
              DedupOk ? "held" : "FAILED",
              static_cast<unsigned long long>(UniqueKeys),
              static_cast<unsigned long long>(Dedup.SpecRuns),
              static_cast<unsigned long long>(Dedup.DedupHits),
              ParityOk ? "held" : "FAILED");

  if (const char *Path = jsonPath(Argc, Argv))
    writeJson(Path, Quick, Tenants, ClientSpace, UniqueKeys, Dedup, Evict,
              DedupOk, ParityOk);

  if (hasFlag(Argc, Argv, "--check") && !(DedupOk && ParityOk))
    return 1;
  return 0;
}
