//===- bench/SpeculationThroughput.cpp ---------------------------------------------===//
//
// Speculative promotion vs. hand annotation on the Table 3 kernels. For
// each kernel, runs the whole-program driver repeatedly under three
// configurations — static (no specialization), annotated (the paper's
// make_static), and speculative (annotations stripped; the run-time
// re-discovers the promotions from online value profiles) — and reports
// the simulated cycle totals (execution + dynamic compilation), the
// fraction of the annotated build's savings the speculative build
// recovered, and the promotion lifecycle counters. Outputs must stay
// bit-identical across all three.
//
// Flags:
//   --quick        fewer driver repetitions (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_spec.json)
//   --check        exit nonzero unless every kernel's outputs match the
//                  static build and at least 3 of the 5 kernels recover
//                  >= 80% of the annotated savings (the acceptance bar)
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Harness.h"
#include "speculate/SpeculativeRuntime.h"

#include <chrono>
#include <cstdio>
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

enum class Mode { Static, Annotated, Speculative };

/// One built-and-measured configuration of a kernel workload.
struct Run {
  core::DycContext Ctx;
  std::unique_ptr<core::Executable> E;
  WorkloadSetup S;
  uint64_t Cycles = 0; ///< exec + dynComp over all driver repetitions
  double Seconds = 0;  ///< host wall-clock of the measured repetitions
};

std::unique_ptr<Run> measure(const Workload &W, Mode M, int Reps) {
  auto R = std::make_unique<Run>();
  core::compileWorkload(W, R->Ctx);
  switch (M) {
  case Mode::Static:
    R->E = R->Ctx.buildStatic();
    break;
  case Mode::Annotated:
    R->E = R->Ctx.buildDynamic();
    break;
  case Mode::Speculative:
    R->E = R->Ctx.buildSpeculative();
    break;
  }
  R->S = W.Setup(*R->E->Machine);
  int MainIdx = R->E->findFunction(W.MainFunc);
  if (MainIdx < 0)
    fatal(W.Name + ": main function not found");
  double T0 = nowSeconds();
  for (int I = 0; I != Reps; ++I)
    R->E->Machine->run(static_cast<uint32_t>(MainIdx), R->S.MainArgs);
  R->Seconds = nowSeconds() - T0;
  R->Cycles = R->E->Machine->execCycles() + R->E->Machine->dynCompCycles();
  return R;
}

bool sameOutput(const Run &A, const Run &B) {
  if (A.S.OutLen != B.S.OutLen)
    return false;
  for (int64_t I = 0; I != A.S.OutLen; ++I)
    if (A.E->Machine->memory()[A.S.OutBase + I].Bits !=
        B.E->Machine->memory()[B.S.OutBase + I].Bits)
      return false;
  return true;
}

struct Row {
  std::string Name;
  uint64_t StaticCycles = 0, AnnotCycles = 0, SpecCycles = 0;
  double Recovered = 0; ///< speculative savings / annotated savings
  bool OutputsMatch = false;
  uint64_t Promotions = 0, Declined = 0, Demotions = 0;
  uint64_t GuardHits = 0, GuardFailures = 0;
  double SpecSeconds = 0;
};

void writeJson(const char *Path, const std::vector<Row> &Rows, int Reps,
               bool Check, bool CheckPassed) {
  JsonReport J;
  J.str("bench", "speculation_throughput")
      .count("reps", static_cast<uint64_t>(Reps))
      .array("workloads");
  for (const Row &R : Rows)
    J.object()
        .str("name", R.Name)
        .count("static_cycles", R.StaticCycles)
        .count("annotated_cycles", R.AnnotCycles)
        .count("speculative_cycles", R.SpecCycles)
        .real("savings_recovered", R.Recovered, 4)
        .boolean("outputs_match", R.OutputsMatch)
        .count("promotions", R.Promotions)
        .count("declined", R.Declined)
        .count("demotions", R.Demotions)
        .count("guard_hits", R.GuardHits)
        .count("guard_failures", R.GuardFailures)
        .real("host_seconds", R.SpecSeconds, 4)
        .close();
  J.close().boolean("check", Check).boolean("check_passed", CheckPassed);
  J.save(Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  bool Check = hasFlag(Argc, Argv, "--check");
  const char *Json = jsonPath(Argc, Argv);

  // Enough driver repetitions to amortize the one-time warm-up (HotCalls
  // generic executions plus the synthesis charge); --quick stays above
  // the promotion threshold with less steady state.
  const int Reps = Quick ? 20 : 48;
  const std::vector<std::string> Names = {"binary", "chebyshev",
                                          "dotproduct", "query", "romberg"};

  std::printf("Speculative promotion vs. hand annotation "
              "(simulated cycles, %d driver reps)\n",
              Reps);
  std::printf("%-12s %12s %12s %12s %10s %6s %6s %6s\n", "kernel", "static",
              "annotated", "speculative", "recovered", "promo", "hits",
              "fails");

  std::vector<Row> Rows;
  int Recovering = 0;
  bool OutputsOk = true;
  for (const std::string &Name : Names) {
    const Workload &W = workloads::workloadByName(Name);
    auto S = measure(W, Mode::Static, Reps);
    auto A = measure(W, Mode::Annotated, Reps);
    auto P = measure(W, Mode::Speculative, Reps);

    Row R;
    R.Name = Name;
    R.StaticCycles = S->Cycles;
    R.AnnotCycles = A->Cycles;
    R.SpecCycles = P->Cycles;
    R.SpecSeconds = P->Seconds;
    R.OutputsMatch = sameOutput(*S, *P) && sameOutput(*S, *A);
    double SavedA = S->Cycles > A->Cycles
                        ? static_cast<double>(S->Cycles - A->Cycles)
                        : 0.0;
    double SavedP = S->Cycles > P->Cycles
                        ? static_cast<double>(S->Cycles - P->Cycles)
                        : 0.0;
    R.Recovered = SavedA > 0 ? SavedP / SavedA : 0.0;
    const speculate::SpeculationStats &St = P->E->Spec->stats();
    R.Promotions = St.Promotions;
    R.Declined = St.PromotionsDeclined;
    R.Demotions = St.Demotions;
    R.GuardHits = St.GuardHits;
    R.GuardFailures = St.GuardFailures;

    if (R.Recovered >= 0.8)
      ++Recovering;
    if (!R.OutputsMatch)
      OutputsOk = false;
    std::printf("%-12s %12llu %12llu %12llu %9.1f%% %6llu %6llu %6llu%s\n",
                Name.c_str(), (unsigned long long)R.StaticCycles,
                (unsigned long long)R.AnnotCycles,
                (unsigned long long)R.SpecCycles, 100.0 * R.Recovered,
                (unsigned long long)R.Promotions,
                (unsigned long long)R.GuardHits,
                (unsigned long long)R.GuardFailures,
                R.OutputsMatch ? "" : "  [OUTPUT MISMATCH!]");
    Rows.push_back(std::move(R));
  }

  bool CheckPassed = OutputsOk && Recovering >= 3;
  std::printf("\n%d/%zu kernels recover >= 80%% of the annotated savings; "
              "outputs %s\n",
              Recovering, Names.size(),
              OutputsOk ? "bit-identical" : "MISMATCHED");

  if (Json)
    writeJson(Json, Rows, Reps, Check, CheckPassed);

  if (Check && !CheckPassed) {
    std::fprintf(stderr, "FAIL: speculation acceptance bar not met\n");
    return 1;
  }
  return 0;
}
