//===- bench/SpecializeThroughput.cpp ----------------------------------------------===//
//
// Host cost of the specializer itself: nanoseconds of wall-clock per
// EMITTED instruction, staged emit plans on versus off (off = the
// OptFlags::ReferenceWalk test hook), across the five Table 3 kernels.
// The plan path is contractually invisible to the simulated machine, so
// this benchmark is the tentpole's scoreboard — the only thing it is
// allowed to change.
//
// Method, per kernel and per plan mode:
//   1. build the dynamic configuration and warm it with one invocation
//      (first specialization; when the path is on, the plan and the block
//      programs this invocation reaches are built here);
//   2. drive a respecialization loop (releaseRegion + run, so every
//      iteration reruns the generating extension against a cached plan)
//      and read the runtime's specializeHostSeconds() accumulator — host
//      wall-clock measured around specializeInto itself, so workload
//      execution and chain teardown never dilute the metric;
//   3. repeat the loop a few times — INTERLEAVED between the two modes,
//      so a machine-load phase hits both — and keep each mode's minimum
//      accumulated time (the repetition least disturbed by scheduler
//      noise), divided by the instructions generated in one repetition.
//
// Cold phase, in the same interleaved repetitions: build a fresh
// executable, run it once, and read specializeHostSeconds() — the first
// specialization's host time, including the plan's creation and the
// block programs and guard arms it builds when the path is on. Each mode
// keeps its minimum.
//
// Plan size, plan path on: the PlanBytes a fresh executable holds after
// its cold run, and what the warmed executable holds after every
// respecialization loop (arms built on first take make the two differ
// only if later runs take arms the first one did not).
//
// Both modes execute the identical simulated sequence; --check fails on
// any counter or disassembly divergence, gates the plan speedup at >= 2x
// on at least 3 of the 5 kernels, and fails when a kernel's plan-on cold
// time exceeds 2.5x its plan-off cold time.
//
// Flags:
//   --quick        shrink the measured loop counts (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_specialize.json)
//   --check        exit nonzero on parity divergence or a missed gate
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

const char *jsonPath(int Argc, char **Argv) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      return Argv[I + 1];
  return nullptr;
}

struct ModeRun {
  uint64_t SpecRuns = 0;        ///< respecialization iterations per rep
  uint64_t InstrsGenerated = 0; ///< emitted instructions in one rep
  double SpecSeconds = 0;       ///< min-over-reps specializer host time
  double ColdSeconds = 0;       ///< min-over-reps first-run host time
  // Parity axis: the complete simulated state after the identical
  // sequence, plus the golden disassembly.
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  uint64_t ICacheMisses = 0;
  std::string RegionStats; ///< all regions, PlanBytes neutralized
  std::string Disassembly; ///< all regions
  uint64_t PlanBuilds = 0;
  uint64_t PlanHits = 0;
  uint64_t ColdPlanBytes = 0; ///< PlanBytes after a cold run
  uint64_t PlanBytes = 0;     ///< PlanBytes after the respecialization loops

  double NsPerEmittedInstr() const {
    return InstrsGenerated
               ? std::max(SpecSeconds, 0.0) * 1e9 /
                     static_cast<double>(InstrsGenerated)
               : 0;
  }
};

/// RegionStats rendered without PlanBytes, the one counter the two modes
/// differ in by design (the walk never builds block programs).
std::string statsSansPlanBytes(runtime::RegionStats St) {
  St.PlanBytes = 0;
  return St.toString();
}

/// One plan mode's live configuration, kept alive across repetitions so
/// the two modes' measured loops can interleave in time.
struct ModeDriver {
  const Workload *W = nullptr;
  core::DycContext Ctx;
  OptFlags Fl;
  std::unique_ptr<core::Executable> E;
  WorkloadSetup S;
  int FI = -1;
  ModeRun R;

  /// A fresh executable of the kernel, set up and ready for its first run.
  std::unique_ptr<core::Executable> build(WorkloadSetup &Setup) {
    std::unique_ptr<core::Executable> X = Ctx.buildDynamic(Fl);
    // Legacy engine: no host-side predecode translation per fresh chain
    // muddying cache behavior around the measured specializer.
    X->Machine->Engine = vm::VM::EngineKind::Legacy;
    Setup = W->Setup(*X->Machine);
    return X;
  }

  void init(const Workload &Kernel, bool PlanOn, uint64_t SpecRuns) {
    W = &Kernel;
    core::compileWorkload(Kernel, Ctx);
    Fl.ReferenceWalk = !PlanOn;
    E = build(S);
    FI = E->findFunction(Kernel.RegionFunc);
    if (FI < 0)
      fatal(Kernel.Name + ": region function not found");
    R.SpecRuns = SpecRuns;
    E->Machine->run(static_cast<uint32_t>(FI),
                    S.RegionArgs); // warmup: specializes
  }

  /// One cold repetition: a fresh executable's first run specializes from
  /// nothing — no chains and no plan.
  void coldRep(unsigned RepIdx) {
    WorkloadSetup FS;
    std::unique_ptr<core::Executable> X = build(FS);
    X->Machine->run(static_cast<uint32_t>(FI), FS.RegionArgs);
    double Secs = X->RT->specializeHostSeconds();
    R.ColdSeconds = RepIdx == 0 ? Secs : std::min(R.ColdSeconds, Secs);
    R.ColdPlanBytes = planBytes(*X->RT); // identical every rep
  }

  static uint64_t planBytes(const runtime::DycRuntime &RT) {
    uint64_t B = 0;
    for (size_t Ord = 0; Ord != RT.numRegions(); ++Ord)
      B += RT.stats(Ord).PlanBytes;
    return B;
  }

  uint64_t sumGenerated() const {
    uint64_t G = 0;
    for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord)
      G += E->RT->stats(Ord).InstructionsGenerated;
    return G;
  }

  /// One respecialization repetition: dropping every chain forces the
  /// next run to rerun the generating extension — against the cached plan
  /// when on. The specializer's own host time comes from the runtime's
  /// accumulator, so chain teardown and workload execution never enter
  /// the metric; the min over repetitions discards disturbed runs.
  void rep(unsigned RepIdx, uint64_t SpecRuns) {
    vm::VM &M = *E->Machine;
    runtime::DycRuntime &RT = *E->RT;
    uint64_t G0 = sumGenerated();
    double S0 = RT.specializeHostSeconds();
    for (uint64_t I = 0; I != SpecRuns; ++I) {
      for (size_t Ord = 0; Ord != RT.numRegions(); ++Ord)
        RT.releaseRegion(M, Ord);
      M.run(static_cast<uint32_t>(FI), S.RegionArgs);
    }
    double Secs = RT.specializeHostSeconds() - S0;
    R.InstrsGenerated = sumGenerated() - G0; // identical every rep
    R.SpecSeconds = RepIdx == 0 ? Secs : std::min(R.SpecSeconds, Secs);
  }

  void finish() {
    vm::VM &M = *E->Machine;
    runtime::DycRuntime &RT = *E->RT;
    R.ExecCycles = M.execCycles();
    R.DynCompCycles = M.dynCompCycles();
    R.InstrsExecuted = M.instrsExecuted();
    R.ICacheMisses = M.icache().misses();
    for (size_t Ord = 0; Ord != RT.numRegions(); ++Ord) {
      const runtime::RegionStats &St = RT.stats(Ord);
      R.RegionStats += statsSansPlanBytes(St) + "\n";
      R.Disassembly += RT.disassembleRegion(Ord);
      R.PlanBuilds += St.PlanBuilds;
      R.PlanHits += St.PlanHits;
    }
    R.PlanBytes = planBytes(RT);
  }
};

struct Row {
  std::string Name;
  ModeRun On, Off;
  double Speedup = 0;   ///< legacy ns/instr over plan ns/instr
  double ColdRatio = 0; ///< plan cold time over legacy cold time
  bool Parity = false;
};

/// The cold gate: a kernel's first specialization may cost at most this
/// many times the reference walk's when the plan path is on.
constexpr double MaxColdRatio = 2.5;

void writeJson(const char *Path, const std::vector<Row> &Rows,
               unsigned GatePassCount, bool ColdOk, bool Check,
               bool CheckPassed) {
  FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot open %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"specialize_throughput\",\n");
  std::fprintf(F, "  \"dispatch\": \"%s\",\n", vm::VM::dispatchMode());
  std::fprintf(F, "  \"kernels\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"spec_runs\": %llu,\n"
        "     \"instrs_generated\": %llu,\n"
        "     \"parity\": %s,\n"
        "     \"plan_on\": {\"ns_per_emitted_instr\": %.3f, "
        "\"cold_us\": %.3f, \"plan_builds\": %llu, \"plan_hits\": %llu,\n"
        "                 \"cold_plan_bytes\": %llu, \"plan_bytes\": %llu},\n"
        "     \"plan_off\": {\"ns_per_emitted_instr\": %.3f, "
        "\"cold_us\": %.3f},\n"
        "     \"speedup\": %.3f, \"cold_ratio\": %.3f}%s\n",
        R.Name.c_str(), (unsigned long long)R.On.SpecRuns,
        (unsigned long long)R.On.InstrsGenerated,
        R.Parity ? "true" : "false", R.On.NsPerEmittedInstr(),
        R.On.ColdSeconds * 1e6, (unsigned long long)R.On.PlanBuilds,
        (unsigned long long)R.On.PlanHits,
        (unsigned long long)R.On.ColdPlanBytes,
        (unsigned long long)R.On.PlanBytes, R.Off.NsPerEmittedInstr(),
        R.Off.ColdSeconds * 1e6, R.Speedup, R.ColdRatio,
        I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F,
               "  \"gate\": {\"min_speedup\": 2.0, \"min_kernels\": 3, "
               "\"kernels_passing\": %u, \"max_cold_ratio\": %.1f, "
               "\"cold_passing\": %s},\n",
               GatePassCount, MaxColdRatio, ColdOk ? "true" : "false");
  std::fprintf(F, "  \"check\": %s,\n  \"check_passed\": %s\n}\n",
               Check ? "true" : "false", CheckPassed ? "true" : "false");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = hasFlag(Argc, Argv, "--quick") ||
               [] {
                 const char *E = std::getenv("DYC_BENCH_QUICK");
                 return E && E[0] == '1';
               }();
  bool Check = hasFlag(Argc, Argv, "--check");
  const char *Json = jsonPath(Argc, Argv);

  const std::vector<std::string> Names = {"binary", "chebyshev",
                                          "dotproduct", "query", "romberg"};
  // Many short repetitions rather than a few long ones: the min filter
  // only needs ONE repetition per mode to land in a quiet scheduling
  // window, and short reps give it many independent chances.
  const uint64_t SpecRuns = Quick ? 50 : 100;
  const unsigned Reps = Quick ? 8 : 12;

  std::printf("specialization throughput, staged emit plans on vs off "
              "(dispatch: %s)\n",
              vm::VM::dispatchMode());
  std::printf("%-12s %9s %11s %13s %13s %8s %13s %13s %7s %11s %11s %7s\n",
              "kernel", "respecs", "emitted", "plan ns/i", "legacy ns/i",
              "speedup", "plan cold us", "legacy cold", "cold x",
              "cold bytes", "plan bytes", "parity");

  std::vector<Row> Rows;
  bool ParityOk = true;
  bool ColdOk = true;
  unsigned GatePass = 0;
  for (const std::string &Name : Names) {
    const Workload &W = workloads::workloadByName(Name);
    Row R;
    R.Name = Name;
    ModeDriver On, Off;
    On.init(W, true, SpecRuns);
    Off.init(W, false, SpecRuns);
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      On.rep(Rep, SpecRuns);
      Off.rep(Rep, SpecRuns);
      On.coldRep(Rep);
      Off.coldRep(Rep);
    }
    On.finish();
    Off.finish();
    R.On = std::move(On.R);
    R.Off = std::move(Off.R);
    R.Parity = R.On.ExecCycles == R.Off.ExecCycles &&
               R.On.DynCompCycles == R.Off.DynCompCycles &&
               R.On.InstrsExecuted == R.Off.InstrsExecuted &&
               R.On.ICacheMisses == R.Off.ICacheMisses &&
               R.On.InstrsGenerated == R.Off.InstrsGenerated &&
               R.On.RegionStats == R.Off.RegionStats &&
               R.On.Disassembly == R.Off.Disassembly &&
               R.On.PlanBuilds > 0;
    if (!R.Parity)
      ParityOk = false;
    double PlanNs = R.On.NsPerEmittedInstr();
    double LegacyNs = R.Off.NsPerEmittedInstr();
    R.Speedup = PlanNs > 0 ? LegacyNs / PlanNs : 0;
    if (R.Speedup >= 2.0)
      ++GatePass;
    R.ColdRatio = R.Off.ColdSeconds > 0
                      ? R.On.ColdSeconds / R.Off.ColdSeconds
                      : 0;
    if (R.ColdRatio > MaxColdRatio)
      ColdOk = false;
    std::printf("%-12s %9llu %11llu %13.3f %13.3f %7.2fx %13.1f %13.1f "
                "%6.2fx %11llu %11llu %7s\n",
                Name.c_str(), (unsigned long long)R.On.SpecRuns,
                (unsigned long long)R.On.InstrsGenerated, PlanNs, LegacyNs,
                R.Speedup, R.On.ColdSeconds * 1e6, R.Off.ColdSeconds * 1e6,
                R.ColdRatio, (unsigned long long)R.On.ColdPlanBytes,
                (unsigned long long)R.On.PlanBytes, R.Parity ? "ok" : "FAIL");
    Rows.push_back(std::move(R));
  }

  bool GateOk = GatePass >= 3;
  std::printf("\nplan >= 2x on %u/5 kernels (gate: 3) %s; plan cold <= "
              "%.1fx legacy cold on every kernel %s; counter parity %s\n",
              GatePass, GateOk ? "ok" : "FAIL", MaxColdRatio,
              ColdOk ? "ok" : "FAIL", ParityOk ? "ok" : "FAIL");

  bool CheckPassed = ParityOk && GateOk && ColdOk;
  if (Json)
    writeJson(Json, Rows, GatePass, ColdOk, Check, CheckPassed);

  if (Check && !CheckPassed) {
    std::fprintf(stderr, "FAIL: %s\n",
                 !ParityOk ? "plan/legacy counter parity diverged"
                 : !GateOk ? "plan speedup gate missed (need >= 2x on 3 of "
                             "5 kernels)"
                           : "plan cold gate missed (first specialization "
                             "over 2.5x the reference walk's)");
    return 1;
  }
  return 0;
}
