//===- bench/DispatchCost.cpp -----------------------------------------------------===//
//
// Section 4.4.3 of the paper: dispatch costs. An unchecked dispatch is a
// load and an indirect jump (~10 cycles); the general double-hashed
// cache-all dispatch averages ~90 cycles, rising to ~150 in mipsi due to
// hash collisions; under cache-all the kernels binary and query slow down
// below their statically compiled versions.
//
// This bench reports (a) the modeled per-dispatch cycle costs measured on
// real workloads by differencing the two policies, (b) probe statistics
// of the double-hash table under load, and (c) host-side nanoseconds per
// cache operation via google-benchmark (run with --gbench).
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "runtime/CodeCache.h"
#include "runtime/RegionExec.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

using namespace dyc;

namespace {

/// A published entry for \p Key, as the run-time's caches hold them.
std::shared_ptr<runtime::SpecEntry> entry(std::vector<Word> Key) {
  auto E = std::make_shared<runtime::SpecEntry>();
  E->Key = std::move(Key);
  E->Hash = hashWords(E->Key);
  return E;
}

void reportPolicyCosts() {
  printf("Dispatch-cost study (section 4.4.3)\n\n");
  vm::CostModel CM;
  printf("modeled unchecked dispatch:       %u cycles (load + indirect "
         "jump)\n",
         CM.DispatchUnchecked);
  printf("modeled hashed dispatch (2-word key, 1 probe): %u cycles\n\n",
         CM.hashedDispatchCost(2, 1));

  // Measured per-invocation delta between cache_one_unchecked (the
  // workloads' annotation) and forced cache-all.
  printf("%-12s %16s %16s %14s %9s  %s\n", "workload", "dyn cyc/inv",
         "cache-all cyc", "delta/disp", "probes", "speedup all/unchecked");
  const char *Names[] = {"m88ksim", "binary", "query", "mipsi"};
  for (const char *Name : Names) {
    const workloads::Workload &W = workloads::workloadByName(Name);
    core::RegionPerf Fast = core::measureRegion(W, OptFlags());
    OptFlags NoUnchecked;
    NoUnchecked.UncheckedDispatching = false;
    core::RegionPerf Slow = core::measureRegion(W, NoUnchecked);
    double DispatchesPerInvoke =
        Fast.Stats.Dispatches
            ? static_cast<double>(Fast.Stats.Dispatches) /
                  (W.RegionInvocations + 1)
            : 1.0;
    double Delta = (Slow.DynCyclesPerInvoke - Fast.DynCyclesPerInvoke) /
                   (DispatchesPerInvoke > 0 ? DispatchesPerInvoke : 1.0);
    printf("%-12s %16.1f %16.1f %14.1f %9s  %.2f vs %.2f%s\n", Name,
           Fast.DynCyclesPerInvoke, Slow.DynCyclesPerInvoke, Delta, "-",
           Slow.AsymptoticSpeedup, Fast.AsymptoticSpeedup,
           Slow.AsymptoticSpeedup < 1.0 ? "   <- slowdown under cache-all"
                                        : "");
  }

  // Double-hash probe behavior under load (the mipsi-collision effect).
  printf("\ndouble-hash table probe statistics:\n");
  for (size_t N : {8u, 64u, 512u, 4096u}) {
    runtime::CodeCache C(ir::CachePolicy::CacheAll);
    DeterministicRNG RNG(0xd15b);
    std::vector<std::vector<Word>> Keys;
    for (size_t I = 0; I != N; ++I) {
      Keys.push_back({Word::fromInt(static_cast<int64_t>(RNG.next())),
                      Word::fromInt(static_cast<int64_t>(I))});
      C.insert(entry(Keys.back()));
    }
    uint64_t Probes = 0;
    for (const auto &K : Keys)
      Probes += C.lookup(K).Probes;
    double Avg = static_cast<double>(Probes) / static_cast<double>(N);
    vm::CostModel CM2;
    printf("  %5zu entries: %.2f probes/lookup -> ~%u cycles/dispatch\n",
           N, Avg,
           CM2.hashedDispatchCost(2, static_cast<unsigned>(Avg + 0.5)));
  }
}

void BM_CacheAllLookup(benchmark::State &State) {
  runtime::CodeCache C(ir::CachePolicy::CacheAll);
  std::vector<std::vector<Word>> Keys;
  DeterministicRNG RNG(77);
  for (int I = 0; I != 256; ++I) {
    Keys.push_back({Word::fromInt(static_cast<int64_t>(RNG.next()))});
    C.insert(entry(Keys.back()));
  }
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.lookup(Keys[I++ & 255]));
  }
}
BENCHMARK(BM_CacheAllLookup);

void BM_CacheOneUncheckedLookup(benchmark::State &State) {
  runtime::CodeCache C(ir::CachePolicy::CacheOneUnchecked);
  std::vector<Word> Key = {Word::fromInt(42)};
  C.insert(entry(Key));
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.lookup(Key));
  }
}
BENCHMARK(BM_CacheOneUncheckedLookup);

} // namespace

int main(int argc, char **argv) {
  bool RunGbench = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--gbench") == 0)
      RunGbench = true;
  reportPolicyCosts();
  if (RunGbench) {
    printf("\nhost-side cache micro-benchmarks:\n");
    int FakeArgc = 1;
    benchmark::Initialize(&FakeArgc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
