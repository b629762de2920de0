//===- bench/InterpThroughput.cpp --------------------------------------------------===//
//
// Host interpretation throughput of the two VM execution engines. For each
// workload, builds the dynamic configuration twice — once pinned to the
// legacy per-instruction switch loop, once to the predecoded superblock
// engine — warms both with one invocation, and then times the same
// region-invocation batch on each engine in several repetitions,
// INTERLEAVED between the two engines so a machine-load phase hits both.
// Each engine keeps its minimum ns per simulated instruction (the
// repetition least disturbed by scheduler noise); the spread column is
// the slowest repetition over the fastest, minus one, so a reader can
// tell a real move from noise. Parity of the simulated counters is the
// parity test's job (tests/InterpParityTest.cpp); this binary measures
// only host speed.
//
// Flags:
//   --quick        shorter and fewer repetitions (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_interp.json)
//   --check        exit nonzero if the predecoded engine's minimum is
//                  slower than the legacy engine's on any workload
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace dyc;
using namespace dyc::bench;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One engine's timing: its fastest and slowest repetition, in host ns
/// per simulated instruction.
struct EngineTiming {
  double MinNs = 0;
  double MaxNs = 0;

  void add(unsigned RepIdx, double Ns) {
    MinNs = RepIdx == 0 ? Ns : std::min(MinNs, Ns);
    MaxNs = RepIdx == 0 ? Ns : std::max(MaxNs, Ns);
  }
  double instrsPerSec() const { return MinNs > 0 ? 1e9 / MinNs : 0; }
  double spread() const { return MinNs > 0 ? MaxNs / MinNs - 1 : 0; }
};

/// One engine's live configuration, kept across repetitions so the two
/// engines' timed batches can interleave.
struct EngineDriver {
  core::DycContext Ctx;
  std::unique_ptr<core::Executable> E;
  WorkloadSetup S;
  int FI = -1;
  uint64_t SimInstrs = 0; ///< simulated instructions in one batch
  EngineTiming Timing;

  /// Builds \p W fresh, pins \p Engine and warms the dispatch caches
  /// with one invocation (specialization happens there).
  EngineDriver(const Workload &W, vm::VM::EngineKind Engine) {
    core::compileWorkload(W, Ctx);
    E = Ctx.buildDynamic();
    E->Machine->Engine = Engine;
    S = W.Setup(*E->Machine);
    FI = E->findFunction(W.RegionFunc);
    if (FI < 0)
      fatal(W.Name + ": region function not found");
    E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs);
  }

  /// Times \p Invokes invocations; returns the host seconds.
  double batch(uint64_t Invokes) {
    uint64_t I0 = E->Machine->instrsExecuted();
    double T0 = nowSeconds();
    for (uint64_t I = 0; I != Invokes; ++I)
      E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs);
    double Secs = nowSeconds() - T0;
    SimInstrs = E->Machine->instrsExecuted() - I0;
    return Secs;
  }

  /// One timed repetition of \p Invokes invocations.
  void rep(unsigned RepIdx, uint64_t Invokes) {
    double Secs = batch(Invokes);
    Timing.add(RepIdx, Secs * 1e9 / std::max<uint64_t>(SimInstrs, 1));
  }
};

/// Scales the invocation count so one legacy repetition lasts at least
/// \p TargetSeconds — both engines then run the same count.
uint64_t calibrate(EngineDriver &Legacy, double TargetSeconds) {
  const uint64_t Probe = 16;
  double Secs = Legacy.batch(Probe);
  if (Secs <= 0)
    return Probe;
  double Scale = TargetSeconds / (Secs / Probe);
  return std::clamp<uint64_t>(static_cast<uint64_t>(Scale), Probe, 50000);
}

struct Row {
  std::string Name;
  uint64_t Invocations = 0;
  uint64_t SimInstrs = 0; ///< simulated instructions in one batch
  EngineTiming Legacy, Predecoded;
  double Speedup = 0;
};

void writeJson(const char *Path, const std::vector<Row> &Rows, unsigned Reps,
               bool Check, bool CheckPassed) {
  JsonReport J;
  J.str("bench", "interp_throughput")
      .str("dispatch", vm::VM::dispatchMode())
      .count("reps", Reps)
      .array("workloads");
  for (const Row &R : Rows) {
    J.object()
        .str("name", R.Name)
        .count("invocations", R.Invocations)
        .count("sim_instrs", R.SimInstrs);
    for (auto [Name, T] : {std::pair{"legacy", &R.Legacy},
                           {"predecoded", &R.Predecoded}})
      J.object(Name)
          .real("host_instrs_per_sec", T->instrsPerSec(), 0)
          .real("ns_per_instr", T->MinNs, 3)
          .real("spread", T->spread(), 3)
          .close();
    J.real("speedup", R.Speedup, 3).close();
  }
  J.close().boolean("check", Check).boolean("check_passed", CheckPassed);
  J.save(Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  bool Check = hasFlag(Argc, Argv, "--check");
  const char *Json = jsonPath(Argc, Argv);

  // The acceptance pair (dotproduct, pnmconvol), one float-heavy kernel,
  // and the two interpreters-as-applications (dinero's deep call
  // structure, mipsi's dispatch loop).
  const std::vector<std::string> Names = {"dotproduct", "pnmconvol",
                                          "chebyshev", "dinero", "mipsi"};
  // Many short repetitions rather than one long run: the minimum needs
  // only one repetition per engine to land in a quiet window.
  const double Target = Quick ? 0.02 : 0.08;
  const unsigned Reps = Quick ? 5 : 9;

  std::printf("VM interpretation throughput (dispatch: %s; min of %u "
              "interleaved repetitions)\n",
              vm::VM::dispatchMode(), Reps);
  std::printf("%-12s %10s %14s %14s %9s %9s %9s %9s %8s\n", "workload",
              "invokes", "legacy i/s", "predec i/s", "ns/i(L)", "ns/i(P)",
              "spread(L)", "spread(P)", "speedup");

  std::vector<Row> Rows;
  bool CheckPassed = true;
  for (const std::string &Name : Names) {
    const Workload &W = workloads::workloadByName(Name);
    EngineDriver Legacy(W, vm::VM::EngineKind::Legacy);
    EngineDriver Predecoded(W, vm::VM::EngineKind::Predecoded);
    Row R;
    R.Name = Name;
    R.Invocations = calibrate(Legacy, Target);
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      Legacy.rep(Rep, R.Invocations);
      Predecoded.rep(Rep, R.Invocations);
    }
    R.SimInstrs = Predecoded.SimInstrs;
    R.Legacy = Legacy.Timing;
    R.Predecoded = Predecoded.Timing;
    R.Speedup = R.Predecoded.MinNs > 0 ? R.Legacy.MinNs / R.Predecoded.MinNs
                                       : 0;
    if (R.Speedup < 1.0)
      CheckPassed = false;
    std::printf("%-12s %10llu %14.0f %14.0f %9.3f %9.3f %8.1f%% %8.1f%% "
                "%7.2fx\n",
                Name.c_str(), (unsigned long long)R.Invocations,
                R.Legacy.instrsPerSec(), R.Predecoded.instrsPerSec(),
                R.Legacy.MinNs, R.Predecoded.MinNs,
                100 * R.Legacy.spread(), 100 * R.Predecoded.spread(),
                R.Speedup);
    Rows.push_back(std::move(R));
  }

  if (Json)
    writeJson(Json, Rows, Reps, Check, CheckPassed);

  if (Check && !CheckPassed) {
    std::fprintf(stderr,
                 "FAIL: predecoded engine slower than legacy on at least "
                 "one workload\n");
    return 1;
  }
  return 0;
}
