//===- bench/SpecializeThroughput.cpp ----------------------------------------------===//
//
// Host cost of the specializer itself, across the five Table 3 kernels:
// nanoseconds of wall-clock per emitted instruction when a kernel is
// specialized again, and microseconds for a kernel's first
// specialization. The specializer runs each block's generating extension
// directly (runtime/UnrollDriver.h), so this is the one path it has.
//
// Method, per kernel:
//   1. build the dynamic configuration and warm it with one invocation
//      (the first specialization);
//   2. drive a respecialization loop (releaseRegion + run, so every
//      iteration reruns the generating extension) and read the runtime's
//      specializeHostSeconds() accumulator — host wall-clock measured
//      around specializeInto itself, so workload execution and chain
//      teardown never dilute the metric;
//   3. repeat the loop a few times and keep the minimum accumulated time
//      (the repetition least disturbed by scheduler noise), divided by
//      the instructions generated in one repetition.
//
// Cold phase, in the same repetitions: build a fresh executable, run it
// once, and read specializeHostSeconds() — the first specialization's
// host time. The minimum over repetitions is kept.
//
// Flags:
//   --quick        shrink the measured loop counts (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_specialize.json)
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace dyc;
using namespace dyc::bench;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

struct Row {
  std::string Name;
  uint64_t SpecRuns = 0;        ///< respecialization iterations per rep
  uint64_t InstrsGenerated = 0; ///< emitted instructions in one rep
  double SpecSeconds = 0;       ///< min-over-reps specializer host time
  double ColdSeconds = 0;       ///< min-over-reps first-run host time

  double nsPerEmittedInstr() const {
    return InstrsGenerated ? SpecSeconds * 1e9 /
                                 static_cast<double>(InstrsGenerated)
                           : 0;
  }
};

/// One kernel's live configuration, kept across repetitions.
struct KernelDriver {
  const Workload *W = nullptr;
  core::DycContext Ctx;
  std::unique_ptr<core::Executable> E;
  WorkloadSetup S;
  int FI = -1;

  /// A fresh executable of the kernel, set up and ready for its first run.
  std::unique_ptr<core::Executable> build(WorkloadSetup &Setup) {
    std::unique_ptr<core::Executable> X = Ctx.buildDynamic();
    // Legacy engine: no host-side predecode translation per fresh chain
    // muddying cache behavior around the measured specializer.
    X->Machine->Engine = vm::VM::EngineKind::Legacy;
    Setup = W->Setup(*X->Machine);
    return X;
  }

  void init(const Workload &Kernel) {
    W = &Kernel;
    core::compileWorkload(Kernel, Ctx);
    E = build(S);
    FI = E->findFunction(Kernel.RegionFunc);
    if (FI < 0)
      fatal(Kernel.Name + ": region function not found");
    E->Machine->run(static_cast<uint32_t>(FI),
                    S.RegionArgs); // warmup: specializes
  }

  /// One cold repetition: a fresh executable's first run specializes from
  /// nothing. Returns its specializer host time.
  double coldRep() {
    WorkloadSetup FS;
    std::unique_ptr<core::Executable> X = build(FS);
    X->Machine->run(static_cast<uint32_t>(FI), FS.RegionArgs);
    return X->RT->specializeHostSeconds();
  }

  uint64_t sumGenerated() const {
    uint64_t G = 0;
    for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord)
      G += E->RT->stats(Ord).InstructionsGenerated;
    return G;
  }

  /// One respecialization repetition: dropping every chain forces the
  /// next run to rerun the generating extension. The specializer's own
  /// host time comes from the runtime's accumulator, so chain teardown and
  /// workload execution never enter the metric. Returns that time and
  /// sets \p Generated to the instructions the repetition emitted.
  double rep(uint64_t SpecRuns, uint64_t &Generated) {
    vm::VM &M = *E->Machine;
    runtime::DycRuntime &RT = *E->RT;
    uint64_t G0 = sumGenerated();
    double S0 = RT.specializeHostSeconds();
    for (uint64_t I = 0; I != SpecRuns; ++I) {
      for (size_t Ord = 0; Ord != RT.numRegions(); ++Ord)
        RT.releaseRegion(M, Ord);
      M.run(static_cast<uint32_t>(FI), S.RegionArgs);
    }
    Generated = sumGenerated() - G0;
    return RT.specializeHostSeconds() - S0;
  }
};

void writeJson(const char *Path, const std::vector<Row> &Rows) {
  JsonReport J;
  J.str("bench", "specialize_throughput")
      .str("dispatch", vm::VM::dispatchMode())
      .array("kernels");
  for (const Row &R : Rows)
    J.object()
        .str("name", R.Name)
        .count("spec_runs", R.SpecRuns)
        .count("instrs_generated", R.InstrsGenerated)
        .real("ns_per_emitted_instr", R.nsPerEmittedInstr(), 3)
        .real("cold_us", R.ColdSeconds * 1e6, 3)
        .close();
  J.close();
  J.save(Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  const char *Json = jsonPath(Argc, Argv);

  const std::vector<std::string> Names = {"binary", "chebyshev",
                                          "dotproduct", "query", "romberg"};
  // Many short repetitions rather than a few long ones: the min filter
  // only needs ONE repetition to land in a quiet scheduling window, and
  // short reps give it many independent chances.
  const uint64_t SpecRuns = Quick ? 50 : 100;
  const unsigned Reps = Quick ? 8 : 12;

  std::printf("specialization throughput (dispatch: %s)\n",
              vm::VM::dispatchMode());
  std::printf("%-12s %9s %11s %11s %11s\n", "kernel", "respecs", "emitted",
              "ns/instr", "cold us");

  std::vector<Row> Rows;
  for (const std::string &Name : Names) {
    KernelDriver K;
    K.init(workloads::workloadByName(Name));
    Row R;
    R.Name = Name;
    R.SpecRuns = SpecRuns;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      double Spec = K.rep(SpecRuns, R.InstrsGenerated); // same every rep
      double Cold = K.coldRep();
      R.SpecSeconds = Rep == 0 ? Spec : std::min(R.SpecSeconds, Spec);
      R.ColdSeconds = Rep == 0 ? Cold : std::min(R.ColdSeconds, Cold);
    }
    std::printf("%-12s %9llu %11llu %11.3f %11.1f\n", Name.c_str(),
                (unsigned long long)R.SpecRuns,
                (unsigned long long)R.InstrsGenerated, R.nsPerEmittedInstr(),
                R.ColdSeconds * 1e6);
    Rows.push_back(std::move(R));
  }

  if (Json)
    writeJson(Json, Rows);
  return 0;
}
