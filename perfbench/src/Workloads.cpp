//===- perfbench/src/Workloads.cpp -----------------------------------------===//

#include "Workloads.h"
#include "Calibrate.h"
#include "Pipeline.h"
#include "Trace.h"

#include "core/Harness.h"
#include "server/SpecServer.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

const std::vector<Workload> &programs() { return workloads::allWorkloads(); }

/// How each kind of DyC work slows down with the reference loops when
/// neighbours load the host: exponents of Calibrator::slowdown, fitted on
/// a shared host as the ones that made repeated runs agree best (see
/// README.md). Compiling and building a program (cold starts, every
/// set-up) follows the heap loop most; running specialized code (steady
/// state, the server's requests) follows the interpreter loop at under
/// half its rate.
constexpr Mix CompileMix = {0.2, 0.6, 0.2};
constexpr Mix RunMix = {0.4, 0.2, 0};

/// Exact simulated counters of a dynamic build.
struct SimCounts {
  uint64_t Instrs = 0;
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t ICacheMisses = 0;
  uint64_t InstrsGenerated = 0;
  uint64_t PlanBuilds = 0;
  uint64_t PlanBytes = 0;

  bool operator==(const SimCounts &) const = default;
  SimCounts &operator+=(const SimCounts &O) {
    Instrs += O.Instrs;
    ExecCycles += O.ExecCycles;
    DynCompCycles += O.DynCompCycles;
    ICacheMisses += O.ICacheMisses;
    InstrsGenerated += O.InstrsGenerated;
    PlanBuilds += O.PlanBuilds;
    PlanBytes += O.PlanBytes;
    return *this;
  }
};

SimCounts countsOf(const core::Executable &E) {
  SimCounts C;
  C.Instrs = E.Machine->instrsExecuted();
  C.ExecCycles = E.Machine->execCycles();
  C.DynCompCycles = E.Machine->dynCompCycles();
  C.ICacheMisses = E.Machine->icache().misses();
  RegionTotals R = regionTotals(E);
  C.InstrsGenerated = R.InstrsGenerated;
  C.PlanBuilds = R.PlanBuilds;
  C.PlanBytes = R.PlanBytes;
  return C;
}

/// One Table 3 program as the fidelity pass measured it.
struct ProgRow {
  std::string Name;
  double S = 0;           ///< static cycles per invocation
  double D = 0;           ///< dynamic cycles per invocation
  uint64_t O = 0;         ///< dynamic-compilation cycles
  uint64_t Instrs = 0;    ///< instructions generated
  SimCounts First;        ///< counters right after the first invocation
  double ColdNs = 0;      ///< source to first result
  double SteadyNs = 0;    ///< host ns per warm invocation
};

/// What one measured phase observed (one per client thread; merged).
struct Acc {
  uint64_t Ops = 0;
  double WallNs = 0;
  /// Time throughput is taken over: the summed service time of a
  /// single-threaded loop (so the benchmark's own checks and teardown do
  /// not count), the wall time of a concurrent phase.
  double TimeBaseNs = 0;
  double BusyNs = 0;       ///< summed service time of the ops
  uint64_t SimInstrs = 0;  ///< simulated instructions those ops executed
  double VmNs = 0;         ///< host ns spent executing in the VM
  std::vector<double> LatNs, WaitNs, ServiceNs;
  std::map<std::string, std::vector<double>> PerClassNs;
  /// Latencies and summed service time scaled to a quiet host: each op's
  /// time divided by the host's slowdown measured beside it. measure()
  /// reduces the latencies per chunk (chunkTimings) and then drops them.
  std::map<std::string, std::vector<double>> PerClassCal;
  double CalBusyNs = 0;
  std::vector<double> Slowdown; ///< each slowdown measured
  /// Simulated instructions one op of each class executes (fixed per class
  /// in the single-threaded workloads; their checks hold it fixed).
  std::map<std::string, double> ClassInstrs;
  uint64_t Dispatches = 0, CacheHits = 0, SpecRuns = 0, Evictions = 0;
  uint64_t JobsCoalesced = 0, ICHits = 0, ICDispatches = 0;
  double SpanErrPct = 0;

  /// One latency sample: the wait from when the op was due to its start,
  /// its service time, and the latency users see.
  void sample(const std::string &Class, double Wait, double Service,
              double Lat) {
    WaitNs.push_back(Wait);
    ServiceNs.push_back(Service);
    LatNs.push_back(Lat);
    PerClassNs[Class].push_back(Lat);
  }
  /// The same op's latency scaled by the host's slowdown \p Slow.
  void sampleCal(const std::string &Class, double Service, double Lat,
                 double Slow) {
    CalBusyNs += Service / Slow;
    PerClassCal[Class].push_back(Lat / Slow);
  }
  /// Folds in \p O. Concurrent phases (client threads) share their wall
  /// time; sequential ones add it.
  void merge(const Acc &O, bool Sequential) {
    Ops += O.Ops;
    WallNs = Sequential ? WallNs + O.WallNs : std::max(WallNs, O.WallNs);
    TimeBaseNs = Sequential ? TimeBaseNs + O.TimeBaseNs
                            : std::max(TimeBaseNs, O.TimeBaseNs);
    BusyNs += O.BusyNs;
    SimInstrs += O.SimInstrs;
    VmNs += O.VmNs;
    LatNs.insert(LatNs.end(), O.LatNs.begin(), O.LatNs.end());
    WaitNs.insert(WaitNs.end(), O.WaitNs.begin(), O.WaitNs.end());
    ServiceNs.insert(ServiceNs.end(), O.ServiceNs.begin(), O.ServiceNs.end());
    for (const auto &[K, V] : O.PerClassNs)
      PerClassNs[K].insert(PerClassNs[K].end(), V.begin(), V.end());
    for (const auto &[K, V] : O.PerClassCal)
      PerClassCal[K].insert(PerClassCal[K].end(), V.begin(), V.end());
    CalBusyNs += O.CalBusyNs;
    Slowdown.insert(Slowdown.end(), O.Slowdown.begin(), O.Slowdown.end());
    ClassInstrs.insert(O.ClassInstrs.begin(), O.ClassInstrs.end());
    Dispatches += O.Dispatches;
    CacheHits += O.CacheHits;
    SpecRuns += O.SpecRuns;
    Evictions += O.Evictions;
    JobsCoalesced += O.JobsCoalesced;
    ICHits += O.ICHits;
    ICDispatches += O.ICDispatches;
    SpanErrPct = std::max(SpanErrPct, O.SpanErrPct);
  }
  double opsPerSec() const {
    return TimeBaseNs > 0 ? Ops / (TimeBaseNs / 1e9) : 0;
  }
};

/// State one run shares across set-up, checks and measurement.
struct Run {
  explicit Run(const Options &O) : O(O), R(O.Seed), Main(O.Trace, 0) {
    if (O.Trace)
      Main.reserve(1u << 18);
  }
  const Options &O;
  Rng R;
  Tracer Main;
  Checks Ops;
  std::string Error;
  std::vector<double> SetupNs;
  std::vector<ProgRow> Rows;
  ModuleSizes Sizes; ///< distinct modules, each counted once
  SimCounts Ref;     ///< exact counts of the reference passes
  double FirstSpecNs = 0, FirstExecNs = 0;
  uint64_t FirstRuns = 0, FirstSpecInstrs = 0;
  std::string Backend;
  /// Extra JSON members for the details line ("" or ", \"key\": value...").
  std::string ExtraDetails;
  bool PlanEnabled = false;
  bool PeakRssReset = false; ///< peak_rss_mb covers only the measured loop
  uint32_t LastOp = 0; ///< operation ids, unique over the run
  /// Extra tracers (server clients) whose spans count toward the layers.
  std::vector<std::unique_ptr<Tracer>> Clients;
  /// Host speed beside the single-threaded loops and the set-ups.
  Calibrator Cal;
};

Word flipped(Word W) { return Word(~W.Bits); }

WorkloadSetup setupMachine(const Workload &W, vm::VM &M, Tracer &T) {
  Scoped S(T, "workloads.setup");
  return W.Setup(M);
}

Word runN(core::Executable &E, int F, const std::vector<Word> &Args,
          uint64_t N, Tracer &T) {
  Scoped S(T, "vm.run");
  Word Last;
  for (uint64_t I = 0; I != N; ++I)
    Last = E.Machine->run(static_cast<uint32_t>(F), Args);
  return Last;
}

/// First invocation of a dynamic build; feeds the first-specialization
/// layer numbers.
Word firstRun(Run &Rn, core::Executable &E, int F,
              const std::vector<Word> &Args, Tracer &T) {
  double Spec = 0;
  uint64_t T0 = nowNs();
  Word Res = runFirst(E, F, Args, T, &Spec);
  double Ns = static_cast<double>(nowNs() - T0);
  Rn.FirstSpecNs += Spec;
  Rn.FirstExecNs += Ns - Spec;
  ++Rn.FirstRuns;
  Rn.FirstSpecInstrs += regionTotals(E).InstrsGenerated;
  return Res;
}

bool compileOrFail(Run &Rn, core::DycContext &Ctx, const std::string &Name,
                   const std::string &Source, Tracer &T,
                   ModuleSizes *Sizes = nullptr) {
  std::vector<std::string> Errors;
  if (compile(Ctx, Source, T, Errors, Sizes))
    return true;
  Rn.Error = "'" + Name + "' failed to compile:";
  for (const std::string &E : Errors)
    Rn.Error += " " + E;
  return false;
}

std::vector<Word> outputsOf(const vm::VM &M, const WorkloadSetup &S) {
  auto Begin = M.memory().begin() + S.OutBase;
  return std::vector<Word>(Begin, Begin + S.OutLen);
}

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 15;

/// Reference-loop samples taken before each set-up.
constexpr unsigned SetupCalSamples = 3;

/// Runs \p Setup SetupReps times, timing each and scaling its time by the
/// host's slowdown measured just before; returns false (with Rn.Error set)
/// if any repetition fails.
template <typename Fn> bool timedSetups(Run &Rn, Fn Setup) {
  for (unsigned I = 0; I != SetupReps; ++I) {
    for (unsigned K = 0; K != SetupCalSamples; ++K)
      Rn.Cal.sample();
    double Slow = Rn.Cal.slowdown(CompileMix);
    uint64_t T0 = nowNs();
    if (!Setup(I == 0))
      return false;
    double Ns = static_cast<double>(nowNs() - T0);
    Rn.SetupNs.push_back(Ns / Slow);
  }
  return true;
}

//===-- Fidelity: Table 3's simulated columns, cross-checked ----------------===//

/// Replays measureRegion's sequence on every program (static: one
/// discarded run, then RegionInvocations timed runs; dynamic: the first,
/// specializing run, then RegionInvocations runs), records the exact s, d,
/// o and instructions generated, and checks them — and the outputs —
/// against core::measureRegion itself. One checked operation per program.
void fidelityPass(Run &Rn, Tracer &T) {
  for (const Workload &W : programs()) {
    ProgRow Row;
    Row.Name = W.Name;
    core::DycContext Ctx;
    uint64_t T0 = nowNs();
    if (!compileOrFail(Rn, Ctx, W.Name, W.Source, T, &Rn.Sizes))
      return;
    double CompileNs = static_cast<double>(nowNs() - T0);
    const uint64_t N = W.RegionInvocations;

    std::unique_ptr<core::Executable> S = buildStatic(Ctx, T);
    WorkloadSetup SS = setupMachine(W, *S->Machine, T);
    int SF = S->findFunction(W.RegionFunc);
    bool Ok = SF >= 0;
    Word SRes;
    if (Ok) {
      runN(*S, SF, SS.RegionArgs, 1, T);
      uint64_t C0 = S->Machine->execCycles();
      SRes = runN(*S, SF, SS.RegionArgs, N, T);
      Row.S = static_cast<double>(S->Machine->execCycles() - C0) / N;
    }

    uint64_t T1 = nowNs();
    std::unique_ptr<core::Executable> D = buildDynamic(Ctx, T, &Rn.Sizes);
    WorkloadSetup DS = setupMachine(W, *D->Machine, T);
    int DF = D->findFunction(W.RegionFunc);
    Ok = Ok && DF >= 0;
    if (Ok) {
      firstRun(Rn, *D, DF, DS.RegionArgs, T);
      Row.ColdNs = CompileNs + static_cast<double>(nowNs() - T1);
      Row.First = countsOf(*D);
      uint64_t C0 = D->Machine->execCycles();
      uint64_t T2 = nowNs();
      Word DRes = runN(*D, DF, DS.RegionArgs, N, T);
      Row.SteadyNs = static_cast<double>(nowNs() - T2) / N;
      Row.D = static_cast<double>(D->Machine->execCycles() - C0) / N;
      Row.O = D->Machine->dynCompCycles();
      Row.Instrs = regionTotals(*D).InstrsGenerated;
      Rn.Ref += countsOf(*D);
      Rn.Backend = D->RT->backendName();
      Rn.PlanEnabled = Rn.PlanEnabled || D->RT->stats(0).PlanEnabled;
      Ok = SRes == DRes && sameOutputs(*S->Machine, *D->Machine, SS);
    }
    {
      Scoped Sp(T, "bench.fidelity");
      core::RegionPerf P = core::measureRegion(W, OptFlags());
      Ok = Ok && P.OutputsMatch && P.StaticCyclesPerInvoke == Row.S &&
           P.DynCyclesPerInvoke == Row.D && P.OverheadCycles == Row.O &&
           P.InstructionsGenerated == Row.Instrs;
    }
    Rn.Ops.record(Ok);
    Rn.Rows.push_back(Row);
  }
}

//===-- cold_start ----------------------------------------------------------===//

struct ColdRef {
  Word Result;
  std::vector<Word> Out;
};

bool coldSetup(Run &Rn, std::vector<ColdRef> &Refs) {
  Refs.clear();
  for (const Workload &W : programs()) {
    core::DycContext Ctx;
    if (!compileOrFail(Rn, Ctx, W.Name, W.Source, Rn.Main))
      return false;
    std::unique_ptr<core::Executable> S = buildStatic(Ctx, Rn.Main);
    WorkloadSetup SS = setupMachine(W, *S->Machine, Rn.Main);
    int SF = S->findFunction(W.RegionFunc);
    if (SF < 0) {
      Rn.Error = "'" + W.Name + "': region function not found";
      return false;
    }
    ColdRef Ref;
    Ref.Result = runN(*S, SF, SS.RegionArgs, 1, Rn.Main);
    Ref.Out = outputsOf(*S->Machine, SS);
    Refs.push_back(std::move(Ref));
  }
  if (Rn.O.CorruptReference)
    Refs[0].Result = flipped(Refs[0].Result);
  return true;
}

/// Closed loop: rounds of all programs in a seeded order, each taken from
/// source to its first region result; the result word, the output range
/// and the exact simulated counters are checked against set-up's static
/// references and the fidelity pass.
Acc coldMeasure(Run &Rn, const std::vector<ColdRef> &Refs, Tracer &T,
                double Seconds) {
  Acc A;
  const std::vector<Workload> &All = programs();
  size_t SpanFrom = T.size();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t Prev = Start;
  while (nowNs() < Deadline) {
    for (size_t P : seededOrder(All.size(), Rn.R)) {
      const Workload &W = All[P];
      T.setOp(++Rn.LastOp);
      {
        Scoped Sp(T, "bench.calibrate");
        Rn.Cal.sample();
      }
      double Slow = Rn.Cal.slowdown(CompileMix);
      A.Slowdown.push_back(Slow);
      uint64_t T0 = nowNs();
      auto Ctx = std::make_unique<core::DycContext>();
      std::vector<std::string> Errors;
      std::unique_ptr<core::Executable> E;
      WorkloadSetup S;
      Word Res;
      double Spec = 0;
      uint64_t R0 = 0, R1 = 0;
      bool Ok = compile(*Ctx, W.Source, T, Errors);
      if (Ok) {
        E = buildDynamic(*Ctx, T);
        S = setupMachine(W, *E->Machine, T);
        int F = E->findFunction(W.RegionFunc);
        Ok = F >= 0;
        if (Ok) {
          double Spec0 = Rn.FirstSpecNs;
          R0 = nowNs();
          Res = firstRun(Rn, *E, F, S.RegionArgs, T);
          R1 = nowNs();
          Spec = Rn.FirstSpecNs - Spec0;
        }
      }
      uint64_t T1 = nowNs();
      {
        Scoped Sp(T, "bench.check");
        Ok = Ok && Res == Refs[P].Result &&
             outputsOf(*E->Machine, S) == Refs[P].Out &&
             countsOf(*E) == Rn.Rows[P].First;
        Rn.Ops.record(Ok);
        double Ns = static_cast<double>(T1 - T0);
        ++A.Ops;
        A.BusyNs += Ns;
        A.sample(W.Name, static_cast<double>(T0 - Prev), Ns, Ns);
        A.sampleCal(W.Name, Ns, Ns, Slow);
        if (E) {
          A.ClassInstrs[W.Name] = static_cast<double>(E->Machine->instrsExecuted());
          A.SimInstrs += E->Machine->instrsExecuted();
          A.VmNs += static_cast<double>(R1 - R0) - Spec;
          RegionTotals RT = regionTotals(*E);
          A.Dispatches += RT.Dispatches;
          A.CacheHits += RT.CacheHits;
          A.SpecRuns += RT.SpecRuns;
          A.Evictions += RT.Evictions;
          A.ICHits += E->RT->inlineCacheHits();
          A.ICDispatches += RT.Dispatches;
        }
      }
      Prev = T1;
      {
        Scoped Sp(T, "bench.teardown");
        E.reset();
        Ctx.reset();
      }
    }
  }
  A.WallNs = static_cast<double>(nowNs() - Start);
  A.TimeBaseNs = A.BusyNs;
  if (T.enabled())
    A.SpanErrPct = checkSpanSum(Rn.Ops, T.spans(), SpanFrom, A.WallNs);
  return A;
}

//===-- steady_state --------------------------------------------------------===//

/// Region invocations per steady-state batch, sized so each batch takes a
/// few milliseconds on a current x86 core: the light kernels expose the
/// runtime's dispatch path, the heavy ones the VM's interpreter.
uint64_t batchSize(const std::string &Name) {
  static const std::map<std::string, uint64_t> Sizes = {
      {"dinero", 4},         {"m88ksim", 20000},
      {"mipsi", 100},        {"pnmconvol", 10},
      {"viewperf:project&clip", 140},
      {"viewperf:shade", 500},
      {"binary", 20000},     {"chebyshev", 16000},
      {"dotproduct", 20000}, {"query", 20000},
      {"romberg", 3000}};
  auto It = Sizes.find(Name);
  return It == Sizes.end() ? 1000 : It->second;
}

/// What one program's steady-state batch must reproduce: the static build
/// run through the same sequence from the post-Setup memory. The benchmark
/// computes it once per run, outside the timed set-ups.
struct SteadyRef {
  uint64_t Batch = 0;
  std::vector<Word> Args;     ///< region arguments Setup returns
  std::vector<Word> Init;     ///< post-Setup memory up to the last word
                              ///< the region ever writes
  std::vector<Word> Results;  ///< static results of one batch from Init
  std::vector<Word> Out;      ///< static output range after that batch
};

/// Highest address + 1 at which \p M differs from \p Init.
size_t dirtyEnd(const vm::VM &M, const std::vector<Word> &Init) {
  const std::vector<Word> &Mem = M.memory();
  size_t N = std::min(Mem.size(), Init.size());
  while (N > 0 && Mem[N - 1] == Init[N - 1])
    --N;
  return N;
}

bool steadyReference(Run &Rn, const Workload &W, SteadyRef &Ref) {
  Tracer &T = Rn.Main;
  core::DycContext Ctx;
  if (!compileOrFail(Rn, Ctx, W.Name, W.Source, T))
    return false;
  std::unique_ptr<core::Executable> S = buildStatic(Ctx, T);
  WorkloadSetup SS = setupMachine(W, *S->Machine, T);
  int SF = S->findFunction(W.RegionFunc);
  if (SF < 0) {
    Rn.Error = "'" + W.Name + "': region function not found";
    return false;
  }
  Scoped Sp(T, "bench.reference");
  const std::vector<Word> Init = S->Machine->memory();
  Ref.Batch = batchSize(W.Name);
  Ref.Args = SS.RegionArgs;
  Ref.Results.resize(Ref.Batch);
  for (uint64_t I = 0; I != Ref.Batch; ++I)
    Ref.Results[I] = S->Machine->run(static_cast<uint32_t>(SF), Ref.Args);
  Ref.Out = outputsOf(*S->Machine, SS);
  // The dynamic build's warm-up may run more invocations than a batch;
  // Init must cover what those write too.
  uint64_t WarmUp = 1 + W.RegionInvocations;
  if (WarmUp > Ref.Batch)
    runN(*S, SF, Ref.Args, WarmUp - Ref.Batch, T);
  Ref.Init.assign(Init.begin(), Init.begin() + static_cast<ptrdiff_t>(
                                                   dirtyEnd(*S->Machine, Init)));
  if (Rn.O.CorruptReference && &W == &programs()[0])
    Ref.Results[0] = flipped(Ref.Results[0]);
  return true;
}

struct SteadyProg {
  const Workload *W = nullptr;
  const SteadyRef *Ref = nullptr;
  std::unique_ptr<core::DycContext> Ctx;
  std::unique_ptr<core::Executable> D;
  int F = -1;
  WorkloadSetup Setup;
  std::vector<Word> Results;
  uint64_t BatchInstrs = 0;      ///< simulated instructions of one batch
};

/// One program's share of the timed set-up: the dynamic build, Setup and
/// the warm-up.
bool steadySetupOne(Run &Rn, const Workload &W, const SteadyRef &Ref,
                    SteadyProg &P) {
  Tracer &T = Rn.Main;
  P.W = &W;
  P.Ref = &Ref;
  P.Ctx = std::make_unique<core::DycContext>();
  if (!compileOrFail(Rn, *P.Ctx, W.Name, W.Source, T))
    return false;
  P.D = buildDynamic(*P.Ctx, T);
  P.Setup = setupMachine(W, *P.D->Machine, T);
  P.F = P.D->findFunction(W.RegionFunc);
  if (P.F < 0) {
    Rn.Error = "'" + W.Name + "': region function not found";
    return false;
  }
  // Setup is deterministic, so the image must match the static build's.
  Rn.Ops.record(P.Setup.RegionArgs == Ref.Args &&
                std::equal(Ref.Init.begin(), Ref.Init.end(),
                           P.D->Machine->memory().begin()));
  // Warm up as measureRegion does: the specializing run, then
  // RegionInvocations more.
  firstRun(Rn, *P.D, P.F, P.Setup.RegionArgs, T);
  runN(*P.D, P.F, P.Setup.RegionArgs, W.RegionInvocations, T);
  P.Results.assign(Ref.Batch, Word());
  return true;
}

/// Closed loop: rounds of one fixed-size batch per program in a seeded
/// order. Each batch starts from the program's post-Setup memory, so every
/// result word and the output range at the end of the batch must equal the
/// static build's after the same sequence.
Acc steadyMeasure(Run &Rn, std::vector<SteadyProg> &Progs, Tracer &T,
                  double Seconds) {
  Acc A;
  size_t SpanFrom = T.size();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t Prev = Start;
  while (nowNs() < Deadline) {
    for (size_t I : seededOrder(Progs.size(), Rn.R)) {
      SteadyProg &P = Progs[I];
      const SteadyRef &Ref = *P.Ref;
      vm::VM &M = *P.D->Machine;
      T.setOp(++Rn.LastOp);
      {
        Scoped Sp(T, "bench.calibrate");
        Rn.Cal.sample();
      }
      double Slow = Rn.Cal.slowdown(RunMix);
      A.Slowdown.push_back(Slow);
      {
        Scoped Sp(T, "bench.restore");
        std::copy(Ref.Init.begin(), Ref.Init.end(), M.memory().begin());
      }
      RegionTotals Before = regionTotals(*P.D);
      uint64_t IC0 = P.D->RT->inlineCacheHits();
      uint64_t I0 = M.instrsExecuted();
      uint64_t T0 = nowNs();
      {
        Scoped Sp(T, "vm.batch");
        for (uint64_t K = 0; K != Ref.Batch; ++K)
          P.Results[K] = M.run(static_cast<uint32_t>(P.F),
                               P.Setup.RegionArgs);
      }
      uint64_t T1 = nowNs();
      Scoped Sp(T, "bench.check");
      uint64_t Instrs = M.instrsExecuted() - I0;
      if (P.BatchInstrs == 0)
        P.BatchInstrs = Instrs;
      Rn.Ops.record(P.Results == Ref.Results &&
                    outputsOf(M, P.Setup) == Ref.Out &&
                    Instrs == P.BatchInstrs);
      double Ns = static_cast<double>(T1 - T0);
      // One sample per batch: its host time per invocation.
      A.Ops += Ref.Batch;
      A.BusyNs += Ns;
      A.sample(P.W->Name, static_cast<double>(T0 - Prev), Ns / Ref.Batch,
               Ns / Ref.Batch);
      A.sampleCal(P.W->Name, Ns, Ns / Ref.Batch, Slow);
      A.SimInstrs += Instrs;
      A.ClassInstrs[P.W->Name] = static_cast<double>(Instrs) / Ref.Batch;
      A.VmNs += Ns;
      RegionTotals After = regionTotals(*P.D);
      A.Dispatches += After.Dispatches - Before.Dispatches;
      A.CacheHits += After.CacheHits - Before.CacheHits;
      A.SpecRuns += After.SpecRuns - Before.SpecRuns;
      A.Evictions += After.Evictions - Before.Evictions;
      A.ICHits += P.D->RT->inlineCacheHits() - IC0;
      A.ICDispatches += After.Dispatches - Before.Dispatches;
      Prev = T1;
    }
  }
  A.WallNs = static_cast<double>(nowNs() - Start);
  A.TimeBaseNs = A.BusyNs;
  if (T.enabled())
    A.SpanErrPct = checkSpanSum(Rn.Ops, T.spans(), SpanFrom, A.WallNs);
  return A;
}

//===-- server_churn --------------------------------------------------------===//

/// Guests: K programs for the accumulator machine of bytecode_vm.minic,
/// all of one shape, so a seed changes which guests are hot and their
/// operands but not the cost of serving them. Ops are (op, a, c) triples:
/// 0 acc = c; 1 acc += mem[c]; 2 mem[c] = acc; 3 if (--mem[c] > 0) goto a;
/// 4 halt.
constexpr size_t NumGuests = 128;
constexpr size_t ResidentBudget = 32;
constexpr double ZipfExponent = 1.1;
constexpr unsigned NumClients = 2; // + ServerConfig{}'s 2 workers = 4
constexpr double OpenLoopRate = 10000; // requests per second, all clients
constexpr int64_t GuestDataWords = 8;
constexpr int64_t GuestLoopTrips = 4;
constexpr uint64_t TrimEvery = 256; // requests of client 0
constexpr uint64_t CalEvery = 256;  // requests of each client

struct Guest {
  std::vector<Word> Code;
  std::vector<Word> Data; ///< initial data memory; reset per request
  int64_t NumOps = 0;
  int64_t CodeAddr = 0, DataAddr = 0;
  Word RefAcc;
  std::vector<Word> RefData; ///< data memory after the static run
};

std::vector<Guest> makeGuests(Rng &R) {
  std::vector<Guest> Gs(NumGuests);
  for (Guest &G : Gs) {
    std::vector<std::array<int64_t, 3>> Ops;
    Ops.push_back({0, 0, static_cast<int64_t>(1 + R.below(100))});
    // Body: five adds and three stores in a seeded order.
    std::vector<int64_t> Kinds = {1, 1, 1, 1, 1, 2, 2, 2};
    for (size_t I : seededOrder(Kinds.size(), R))
      Ops.push_back({Kinds[I], 0, static_cast<int64_t>(1 + R.below(7))});
    Ops.push_back({3, 1, 0});
    Ops.push_back({1, 0, static_cast<int64_t>(1 + R.below(7))});
    Ops.push_back({4, 0, 0});
    for (const auto &Op : Ops)
      for (int64_t V : Op)
        G.Code.push_back(Word::fromInt(V));
    G.NumOps = static_cast<int64_t>(Ops.size());
    G.Data.push_back(Word::fromInt(GuestLoopTrips));
    for (int64_t I = 1; I != GuestDataWords; ++I)
      G.Data.push_back(Word::fromInt(static_cast<int64_t>(R.below(50))));
  }
  return Gs;
}

/// Lays every guest into a fresh \p M, allocating in guest order. With
/// \p Place set it records where each guest landed; otherwise it returns
/// false if an allocation lands elsewhere than recorded.
bool applyImage(vm::VM &M, std::vector<Guest> &Gs, bool Place) {
  for (Guest &G : Gs) {
    int64_t Code = M.allocMemory(static_cast<int64_t>(G.Code.size()));
    int64_t Data = M.allocMemory(GuestDataWords);
    if (Place) {
      G.CodeAddr = Code;
      G.DataAddr = Data;
    } else if (Code != G.CodeAddr || Data != G.DataAddr) {
      return false;
    }
    std::copy(G.Code.begin(), G.Code.end(), M.memory().begin() + Code);
    std::copy(G.Data.begin(), G.Data.end(), M.memory().begin() + Data);
  }
  return true;
}

std::vector<Word> guestArgs(const Guest &G) {
  return {Word::fromInt(G.CodeAddr), Word::fromInt(G.NumOps),
          Word::fromInt(G.DataAddr)};
}

void resetData(vm::VM &M, const Guest &G) {
  std::copy(G.Data.begin(), G.Data.end(), M.memory().begin() + G.DataAddr);
}

bool dataMatches(const vm::VM &M, const Guest &G) {
  return std::equal(G.RefData.begin(), G.RefData.end(),
                    M.memory().begin() + G.DataAddr);
}

/// Spin-wait hint: yields the core's shared resources to a hyperthread
/// sibling, which may be running the server's worker.
void spinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct ServerState {
  std::unique_ptr<core::DycContext> Ctx;
  std::vector<Guest> Guests;
  std::vector<size_t> RankToGuest;
  /// Set by the memory-image callback if any VM lays guests out elsewhere.
  std::shared_ptr<std::atomic<bool>> ImageMismatch;
  std::unique_ptr<server::SpecServer> Server;
  std::vector<std::unique_ptr<vm::VM>> ClientVMs;
  int F = -1;

  void release() {
    ClientVMs.clear();
    Server.reset();
  }
};

bool serverSetup(Run &Rn, ServerState &St, const std::string &VmSource,
                 bool First) {
  Tracer &T = Rn.Main;
  St.release();
  St.Ctx = std::make_unique<core::DycContext>();
  if (!compileOrFail(Rn, *St.Ctx, "bytecode_vm.minic", VmSource, T,
                     First ? &Rn.Sizes : nullptr))
    return false;
  Rng GR(Rn.O.Seed ^ 0x5e7e5e7eULL);
  St.Guests = makeGuests(GR);
  St.RankToGuest = seededOrder(NumGuests, GR);

  // Static reference for every guest.
  std::unique_ptr<core::Executable> S = buildStatic(*St.Ctx, T);
  int F = S->findFunction("run");
  if (F < 0) {
    Rn.Error = "bytecode_vm.minic has no 'run' function";
    return false;
  }
  {
    Scoped Sp(T, "workloads.setup");
    applyImage(*S->Machine, St.Guests, /*Place=*/true);
  }
  {
    Scoped Sp(T, "bench.reference");
    for (Guest &G : St.Guests) {
      resetData(*S->Machine, G);
      G.RefAcc = S->Machine->run(static_cast<uint32_t>(F), guestArgs(G));
      G.RefData.assign(S->Machine->memory().begin() + G.DataAddr,
                       S->Machine->memory().begin() + G.DataAddr +
                           GuestDataWords);
    }
  }
  // The inline runtime must agree with the static build on every guest.
  std::unique_ptr<core::Executable> D = buildDynamic(*St.Ctx, T);
  bool Laid;
  {
    Scoped Sp(T, "workloads.setup");
    Laid = applyImage(*D->Machine, St.Guests, false);
  }
  for (const Guest &G : St.Guests) {
    resetData(*D->Machine, G);
    Word R = firstRun(Rn, *D, F, guestArgs(G), T);
    Rn.Ops.record(Laid && R == G.RefAcc && dataMatches(*D->Machine, G));
  }
  if (First)
    Rn.Ref += countsOf(*D);
  if (Rn.O.CorruptReference)
    St.Guests[0].RefAcc = flipped(St.Guests[0].RefAcc);

  // The server: ServerConfig{} apart from a resident budget below K.
  St.ImageMismatch = std::make_shared<std::atomic<bool>>(false);
  server::ServerConfig Cfg;
  Cfg.Budget.MaxEntries = ResidentBudget;
  Cfg.MemoryImage = [Gs = St.Guests,
                     Bad = St.ImageMismatch](vm::VM &M) mutable {
    if (!applyImage(M, Gs, false))
      Bad->store(true);
  };
  {
    Scoped Sp(T, "server.build");
    St.Server = St.Ctx->buildServer(OptFlags(), std::move(Cfg));
    for (unsigned C = 0; C != NumClients; ++C)
      St.ClientVMs.push_back(St.Server->makeClientVM());
  }
  St.F = St.Server->findFunction("run");
  return true;
}

/// One client's side of a phase. Open loop: request i of client c is due
/// at Start + (i * NumClients + c) / OpenLoopRate and is timed from then;
/// closed loop: the next request is due when the previous one completes.
Acc serverClient(const ServerState &St, vm::VM &M, unsigned C, bool Open,
                 uint64_t Start, uint64_t End, uint64_t Seed, Tracer &T,
                 Checks &Ops) {
  Acc A;
  Rng R(Seed);
  Zipf Z(NumGuests, ZipfExponent);
  Calibrator Cal;
  double Slow = 1;
  const double StepNs = 1e9 / OpenLoopRate;
  size_t SpanFrom = T.size();
  uint64_t Prev = Start;
  uint64_t Last = Start;
  for (uint64_t I = 0;; ++I) {
    // Measured before the wait, so an open loop's schedule absorbs it; a
    // closed loop's next request is due after it.
    if (I % CalEvery == 0) {
      Scoped Sp(T, "bench.calibrate");
      Cal.sample();
      Slow = Cal.slowdown(RunMix);
      A.Slowdown.push_back(Slow);
      if (!Open)
        Prev = nowNs();
    }
    uint64_t Due = Prev;
    if (Open) {
      Due = Start + static_cast<uint64_t>(
                        static_cast<double>(I * NumClients + C) * StepNs);
      if (Due >= End)
        break;
      Scoped Sp(T, "bench.wait");
      while (nowNs() < Due)
        spinPause();
    } else if (Prev >= End) {
      break;
    }
    size_t K = St.RankToGuest[Z.draw(R)];
    const Guest &G = St.Guests[K];
    T.setOp(static_cast<uint32_t>(I));
    uint64_t T0 = nowNs();
    {
      Scoped Sp(T, "bench.reset");
      resetData(M, G);
    }
    uint64_t I0 = M.instrsExecuted();
    Word Res;
    {
      Scoped Sp(T, "server.request");
      Res = M.run(static_cast<uint32_t>(St.F), guestArgs(G));
    }
    uint64_t T1 = nowNs();
    {
      Scoped Sp(T, "bench.check");
      Ops.record(Res == G.RefAcc && dataMatches(M, G));
      double Wait = static_cast<double>(T0 > Due ? T0 - Due : 0);
      double Service = static_cast<double>(T1 - T0);
      ++A.Ops;
      A.BusyNs += Service;
      // Raw latency and wait samples come from the open loop only; the
      // closed loop's hundreds of thousands of requests keep only their
      // calibrated times, which its chunk reduces to a median.
      if (Open) {
        A.sample("request", Wait, Service, Wait + Service);
        A.sampleCal("request", Service, Wait + Service, Slow);
      } else {
        A.sampleCal("request", Service, Service, Slow);
      }
      A.SimInstrs += M.instrsExecuted() - I0;
      A.VmNs += Service;
    }
    Prev = T1;
    // Client 0 also runs the server's reclamation safe point (retired
    // cache snapshots and drained evicted chains), as a deployment would;
    // without it the server's memory grows with every miss.
    if (C == 0 && I % TrimEvery == 0) {
      Scoped Sp(T, "server.trim");
      St.Server->trimQuiescent();
    }
    Last = nowNs();
  }
  A.WallNs = A.TimeBaseNs = static_cast<double>(Last - Start);
  if (T.enabled())
    A.SpanErrPct = checkSpanSum(Ops, T.spans(), SpanFrom, A.WallNs);
  return A;
}

Acc serverPhase(Run &Rn, ServerState &St, bool Open, double Seconds,
                bool Traced) {
  std::vector<Acc> Per(NumClients);
  std::vector<Checks> Ops(NumClients);
  std::vector<uint64_t> Seeds;
  std::vector<Tracer *> Tracers;
  for (unsigned C = 0; C != NumClients; ++C) {
    Seeds.push_back(Rn.R.next());
    Rn.Clients.push_back(std::make_unique<Tracer>(
        Traced, static_cast<uint32_t>(Rn.Clients.size() + 1)));
    Tracers.push_back(Rn.Clients.back().get());
  }
  uint64_t Start = nowNs() + 1000000; // let both clients reach the start
  uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
  {
    std::vector<std::jthread> Threads; // joined on every path out
    for (unsigned C = 0; C != NumClients; ++C)
      Threads.emplace_back([&, C] {
        Per[C] = serverClient(St, *St.ClientVMs[C], C, Open, Start, End,
                              Seeds[C], *Tracers[C], Ops[C]);
      });
  }
  Acc A;
  for (unsigned C = 0; C != NumClients; ++C) {
    A.merge(Per[C], /*Sequential=*/false);
    Rn.Ops.add(Ops[C]);
  }
  if (!Traced)
    Rn.Clients.resize(Rn.Clients.size() - NumClients);
  return A;
}

/// Closed-loop phase for throughput, then open-loop phase for latency.
std::pair<Acc, Acc> serverMeasure(Run &Rn, ServerState &St, double Seconds,
                                  bool Traced) {
  server::ServerStatsSnapshot S0 = St.Server->stats();
  Acc Closed = serverPhase(Rn, St, /*Open=*/false, 0.4 * Seconds, Traced);
  Acc Open = serverPhase(Rn, St, /*Open=*/true, 0.6 * Seconds, Traced);
  St.Server->drain();
  server::ServerStatsSnapshot S1 = St.Server->stats();
  Closed.Dispatches = S1.Dispatches - S0.Dispatches;
  Closed.CacheHits = S1.CacheHits - S0.CacheHits;
  Closed.SpecRuns = S1.SpecRuns - S0.SpecRuns;
  Closed.Evictions = S1.Evictions - S0.Evictions;
  Closed.JobsCoalesced = S1.JobsCoalesced - S0.JobsCoalesced;
  Rn.Ops.record(!St.ImageMismatch->load());
  std::ostringstream OS;
  OS << ", \"server\": {\"spec_runs\": " << S1.SpecRuns
     << ", \"evictions\": " << S1.Evictions
     << ", \"chains_created\": " << S1.ChainsCreated
     << ", \"chains_collected\": " << S1.ChainsCollected
     << ", \"snapshots_retired\": " << S1.SnapshotsRetired
     << ", \"snapshots_freed\": " << S1.SnapshotsFreed
     << ", \"live_chains\": " << St.Server->liveChains()
     << ", \"client_translations\": [";
  for (size_t C = 0; C != St.ClientVMs.size(); ++C)
    OS << (C ? ", " : "") << St.ClientVMs[C]->decodedObjects();
  OS << "]}";
  Rn.ExtraDetails = OS.str();
  return {std::move(Closed), std::move(Open)};
}

//===-- Metrics -------------------------------------------------------------===//

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Percentile \p P of each class's latencies (each program; the one class
/// of server requests, whose guests all have one shape), geometric mean
/// across classes. Taking the percentile per class keeps it inside one
/// program's distribution instead of on the boundary between two.
double classPercentile(const std::map<std::string, std::vector<double>> &C,
                       double P) {
  std::vector<double> PerClass;
  for (const auto &[Class, Ns] : C)
    PerClass.push_back(percentile(Ns, P));
  return geomean(PerClass);
}

/// Starts a window of peak_rss_mb (one per measured chunk), so that it
/// shows the measured loop and not set-up or the fidelity pass, and so
/// that a chunk's peak does not depend on the chunks before it. The heap
/// memory freed so far is handed back to the kernel, then writing 5 to
/// clear_refs resets its resident-set high-water mark (VmHWM) to the
/// current resident set.
/// False where the kernel refuses; the peak then covers the whole process.
bool resetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  int Fd = open("/proc/self/clear_refs", O_WRONLY);
  bool Ok = Fd >= 0 && write(Fd, "5", 1) == 1;
  if (Fd >= 0)
    close(Fd);
  return Ok;
}

/// The resident-set high-water mark in MB (VmHWM; ru_maxrss, the peak of
/// the whole process, where /proc cannot be read).
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

/// What the measurement phase of a run observed, in chunks of about a
/// second.
struct Measured {
  /// Per untraced chunk: chunkTimings, raw throughput, peak RSS in MB.
  std::vector<std::array<double, 3>> Timings;
  std::vector<double> OpsPerSec, PeakMb;
  Acc Tput, Lat;          ///< merged chunks; the traced ones when tracing
  double OverheadPct = 0; ///< tracing overhead (traced runs)
};

/// One measured chunk's timing metrics: ops per second, the median op
/// latency in us and host ns per simulated instruction, all from calibrated
/// times (each op's time divided by the host's slowdown measured beside
/// it). A single-threaded workload's throughput and ns per simulated
/// instruction come from each class's median op time (as if one op of
/// every class ran per round); a concurrent phase's from its clients'
/// summed busy time. The server's median latency is its closed loop's: the
/// open loop's, of requests reaching an idle client, spread 6-16% over
/// runs of the same code, the closed loop's 3%.
std::array<double, 3> chunkTimings(const Acc &Tput, const Acc &Lat,
                                   bool Concurrent) {
  if (Concurrent)
    return {ratio(1e9 * NumClients * static_cast<double>(Tput.Ops),
                  Tput.CalBusyNs),
            classPercentile(Tput.PerClassCal, 0.50) / 1e3,
            ratio(Tput.CalBusyNs, static_cast<double>(Tput.SimInstrs))};
  double RoundNs = 0, RoundInstrs = 0;
  for (const auto &[Class, Ns] : Lat.PerClassCal) {
    RoundNs += median(Ns);
    RoundInstrs += Lat.ClassInstrs.at(Class);
  }
  return {ratio(1e9 * static_cast<double>(Lat.PerClassCal.size()), RoundNs),
          classPercentile(Lat.PerClassCal, 0.50) / 1e3,
          ratio(RoundNs, RoundInstrs)};
}

/// Each end-to-end metric is the median over the run's chunks (setup_s:
/// over its set-ups), so neither a burst of interference nor a few slow
/// seconds move it.
std::vector<Metric> endToEnd(const Run &Rn, const Measured &M) {
  std::array<std::vector<double>, 3> PerChunk;
  for (const std::array<double, 3> &V : M.Timings)
    for (size_t K = 0; K != V.size(); ++K)
      PerChunk[K].push_back(V[K]);
  return {
      {"ops_per_s", median(PerChunk[0]), "1/s"},
      {"op_p50_us", median(PerChunk[1]), "us"},
      {"ns_per_sim_instr", median(PerChunk[2]), "ns"},
      {"setup_s", median(Rn.SetupNs) / 1e9, "s"},
      {"peak_rss_mb", median(M.PeakMb), "MB"},
  };
}

std::string metricName(const std::string &Program, const char *Suffix) {
  std::string N = Program;
  std::replace(N.begin(), N.end(), ':', '-');
  std::replace(N.begin(), N.end(), '&', '-');
  return "workloads." + N + "." + Suffix;
}

std::vector<Metric> perLayer(const Run &Rn, const Acc &Tput, const Acc &Lat,
                             double OverheadPct) {
  std::map<std::string, SelfTime> ST = selfTimes(Rn.Main.spans());
  for (const std::unique_ptr<Tracer> &C : Rn.Clients)
    for (const auto &[Name, T] : selfTimes(C->spans())) {
      ST[Name].Calls += T.Calls;
      ST[Name].SelfNs += T.SelfNs;
    }
  auto Ms = [&](const char *Span) {
    auto It = ST.find(Span);
    return It == ST.end() ? 0.0 : It->second.SelfNs / It->second.Calls / 1e6;
  };
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  std::vector<Metric> M = {
      {"frontend.ms", Ms("frontend"), "ms"},
      {"frontend.ir_instrs", D(Rn.Sizes.FrontendInstrs), "count"},
      {"opt.ms", Ms("opt"), "ms"},
      {"opt.ir_instrs", D(Rn.Sizes.OptInstrs), "count"},
      {"bta.ms", Ms("bta"), "ms"},
      {"bta.contexts", D(Rn.Sizes.Contexts), "count"},
      {"cogen.lower_ms", Ms("cogen.lower"), "ms"},
      {"cogen.genext_ms", Ms("cogen.genext"), "ms"},
      {"runtime.build_ms", Ms("runtime.build"), "ms"},
      {"runtime.first_spec_ms", ratio(Rn.FirstSpecNs, D(Rn.FirstRuns)) / 1e6,
       "ms"},
      {"runtime.first_spec_ns_per_instr",
       ratio(Rn.FirstSpecNs, D(Rn.FirstSpecInstrs)), "ns"},
      {"runtime.plan_builds", D(Rn.Ref.PlanBuilds), "count"},
      {"runtime.plan_bytes", D(Rn.Ref.PlanBytes), "bytes"},
      {"runtime.instrs_generated", D(Rn.Ref.InstrsGenerated), "count"},
      {"runtime.dispatches", D(Tput.Dispatches), "count"},
      {"runtime.cache_hit_ratio", ratio(D(Tput.CacheHits), D(Tput.Dispatches)),
       "ratio"},
      {"runtime.ic_hit_ratio", ratio(D(Tput.ICHits), D(Tput.ICDispatches)),
       "ratio"},
      {"runtime.spec_runs", D(Tput.SpecRuns), "count"},
      {"runtime.evictions", D(Tput.Evictions), "count"},
      {"vm.build_ms", Ms("vm.build"), "ms"},
      {"vm.first_exec_ms", ratio(Rn.FirstExecNs, D(Rn.FirstRuns)) / 1e6,
       "ms"},
      {"vm.host_ns_per_sim_instr", ratio(Tput.VmNs, D(Tput.SimInstrs)), "ns"},
      {"vm.sim_instrs", D(Rn.Ref.Instrs), "count"},
      {"vm.sim_exec_cycles", D(Rn.Ref.ExecCycles), "cycles"},
      {"vm.sim_dyncomp_cycles", D(Rn.Ref.DynCompCycles), "cycles"},
      {"vm.icache_misses", D(Rn.Ref.ICacheMisses), "count"},
      {"server.jobs_coalesced", D(Tput.JobsCoalesced), "count"},
      {"e2e.op_p50_us", classPercentile(Lat.PerClassNs, 0.50) / 1e3, "us"},
      {"e2e.op_p90_us", classPercentile(Lat.PerClassNs, 0.90) / 1e3, "us"},
      {"e2e.op_p99_us", classPercentile(Lat.PerClassNs, 0.99) / 1e3, "us"},
      {"e2e.wait_us_p50", percentile(Lat.WaitNs, 0.50) / 1e3, "us"},
      {"e2e.wait_us_p99", percentile(Lat.WaitNs, 0.99) / 1e3, "us"},
      {"e2e.service_us_p50", percentile(Lat.ServiceNs, 0.50) / 1e3, "us"},
      {"e2e.service_us_p99", percentile(Lat.ServiceNs, 0.99) / 1e3, "us"},
      {"workloads.setup_ms", Ms("workloads.setup"), "ms"},
  };
  for (const ProgRow &R : Rn.Rows) {
    M.push_back({metricName(R.Name, "cold_ms"), R.ColdNs / 1e6, "ms"});
    M.push_back({metricName(R.Name, "steady_ns_per_invoke"), R.SteadyNs,
                 "ns"});
    M.push_back({metricName(R.Name, "sim_d_cycles"), R.D, "cycles"});
  }
  M.push_back({"bench.host_slowdown", median(Tput.Slowdown), "ratio"});
  M.push_back({"trace.overhead_pct", OverheadPct, "%"});
  M.push_back({"trace.span_sum_err_pct",
               std::max(Tput.SpanErrPct, Lat.SpanErrPct), "%"});
  return M;
}

std::string details(const Run &Rn) {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"backend\": \"" << Rn.Backend << "\", \"emit_plan\": "
     << (Rn.PlanEnabled ? "true" : "false") << ", \"peak_rss_window\": \""
     << (Rn.PeakRssReset ? "measured" : "process") << "\", \"table3\": [";
  for (size_t I = 0; I != Rn.Rows.size(); ++I) {
    const ProgRow &R = Rn.Rows[I];
    OS << (I ? ", " : "") << "{\"program\": \"" << R.Name
       << "\", \"s_cycles\": " << R.S << ", \"d_cycles\": " << R.D
       << ", \"o_cycles\": " << R.O << ", \"instrs_generated\": " << R.Instrs
       << ", \"cold_ms\": " << R.ColdNs / 1e6
       << ", \"steady_ns_per_invoke\": " << R.SteadyNs << "}";
  }
  OS << "]" << Rn.ExtraDetails << "}";
  return OS.str();
}

/// Runs \p Chunk (one measurement chunk: seconds, traced -> (throughput,
/// latency)) for the run's seconds. A traced run alternates untraced and
/// traced chunks, so drift (the machine, the workload's own warm-up)
/// affects both sides alike: the traced chunks give the per-layer numbers
/// and the ratio of the two sides' calibrated time per op is the tracing
/// overhead. Each untraced chunk is reduced to its timings as it ends.
template <typename Fn>
Measured measure(Run &Rn, Fn Chunk, bool Concurrent) {
  Measured M;
  const bool Trace = Rn.O.Trace;
  const int N = std::max(2, static_cast<int>(std::lround(Rn.O.Seconds)));
  Acc TputU;
  for (int I = 0; I != N; ++I) {
    bool Traced = Trace && I % 2 == 1;
    bool Reset = resetPeakRss();
    if (I == 0)
      Rn.PeakRssReset = Reset;
    auto [Tput, Lat] = Chunk(Rn.O.Seconds / N, Traced);
    if (!Traced) {
      M.PeakMb.push_back(peakRssMb());
      M.Timings.push_back(chunkTimings(Tput, Lat, Concurrent));
      M.OpsPerSec.push_back(Tput.opsPerSec());
    }
    // chunkTimings reduced these; the server's closed loop has far too
    // many to keep.
    Tput.PerClassCal.clear();
    Lat.PerClassCal.clear();
    if (!Traced)
      TputU.merge(Tput, /*Sequential=*/true);
    if (Traced || !Trace) {
      M.Tput.merge(Tput, /*Sequential=*/true);
      M.Lat.merge(Lat, /*Sequential=*/true);
    }
  }
  // Compared in calibrated time per op, so that the host's drift between
  // the two sides' chunks does not count as overhead.
  auto CalPerOp = [](const Acc &A) {
    return ratio(A.CalBusyNs, static_cast<double>(A.Ops));
  };
  if (Trace)
    M.OverheadPct = 100.0 * (ratio(CalPerOp(M.Tput), CalPerOp(TputU)) - 1);
  return M;
}

void finish(Run &Rn, Result &Res, const Measured &M) {
  Res.Metrics = Rn.O.Trace ? perLayer(Rn, M.Tput, M.Lat, M.OverheadPct)
                           : endToEnd(Rn, M);
  std::ostringstream OS;
  OS.precision(6);
  OS << ", \"host_slowdown\": " << median(M.Tput.Slowdown);
  OS << ", \"chunk_ops_per_s\": [";
  for (size_t I = 0; I != M.OpsPerSec.size(); ++I)
    OS << (I ? ", " : "") << M.OpsPerSec[I];
  OS << "]";
  Rn.ExtraDetails += OS.str();
  Res.Details = details(Rn);
  if (Rn.O.Trace && !Rn.O.TracePath.empty()) {
    std::vector<const Tracer *> All = {&Rn.Main};
    for (const std::unique_ptr<Tracer> &C : Rn.Clients)
      All.push_back(C.get());
    uint64_t Origin = UINT64_MAX;
    for (const Tracer *T : All)
      if (!T->spans().empty())
        Origin = std::min(Origin, T->spans().front().Begin);
    const size_t MaxSpans = 200000; // keeps the file in the tens of MB
    Rn.Ops.record(
        writeChromeTrace(Rn.O.TracePath, All, Origin, MaxSpans / All.size()));
  }
}

/// The replay used for spans must match DycContext (traced runs only).
void replayParity(Run &Rn) {
  if (!Rn.O.Trace)
    return;
  Scoped Sp(Rn.Main, "bench.parity");
  for (const Workload &W : programs())
    Rn.Ops.record(checkReplayParity(W));
}

} // namespace

Result runWorkload(const Options &O) {
  Result Res;
  Run Rn(O);
  Tracer Off(false, 0);
  auto Pick = [&](bool Traced) -> Tracer & { return Traced ? Rn.Main : Off; };

  // Each workload supplies its set-up and one measurement chunk.
  std::function<bool(bool First)> Setup;
  std::function<std::pair<Acc, Acc>(double Seconds, bool Traced)> Chunk;
  std::vector<ColdRef> Refs;
  std::vector<SteadyRef> SteadyRefs;
  std::vector<SteadyProg> Progs;
  ServerState St;
  std::string VmSource;
  bool Concurrent = false;
  if (O.Workload == "cold_start") {
    Setup = [&](bool) { return coldSetup(Rn, Refs); };
    Chunk = [&](double S, bool Traced) {
      Acc A = coldMeasure(Rn, Refs, Pick(Traced), S);
      return std::pair<Acc, Acc>(A, A);
    };
  } else if (O.Workload == "steady_state") {
    SteadyRefs.resize(programs().size());
    for (size_t I = 0; I != SteadyRefs.size(); ++I)
      if (!steadyReference(Rn, programs()[I], SteadyRefs[I])) {
        Res.Error = Rn.Error;
        return Res;
      }
    Setup = [&](bool) {
      Progs.clear();
      Progs.resize(programs().size());
      for (size_t I = 0; I != Progs.size(); ++I)
        if (!steadySetupOne(Rn, programs()[I], SteadyRefs[I], Progs[I]))
          return false;
      return true;
    };
    Chunk = [&](double S, bool Traced) {
      Acc A = steadyMeasure(Rn, Progs, Pick(Traced), S);
      return std::pair<Acc, Acc>(A, A);
    };
  } else if (O.Workload == "server_churn") {
    std::ifstream In(O.VmSourcePath);
    if (!In) {
      Res.Error = "cannot read the interpreter source '" + O.VmSourcePath +
                  "' (pass --vm-source)";
      return Res;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    VmSource = Buf.str();
    Setup = [&](bool First) { return serverSetup(Rn, St, VmSource, First); };
    Chunk = [&](double S, bool Traced) {
      return serverMeasure(Rn, St, S, Traced);
    };
    Concurrent = true;
  } else {
    Res.Error = "unknown workload '" + O.Workload + "'";
    return Res;
  }

  if (timedSetups(Rn, Setup)) {
    fidelityPass(Rn, Rn.Main);
    replayParity(Rn);
  }
  if (!Rn.Error.empty()) {
    Res.Error = Rn.Error;
    return Res;
  }
  Measured M = measure(Rn, Chunk, Concurrent);
  // Per-program rows come from the measured loop where it ran them.
  for (ProgRow &R : Rn.Rows) {
    auto It = M.Tput.PerClassNs.find(R.Name);
    if (It != M.Tput.PerClassNs.end())
      (O.Workload == "cold_start" ? R.ColdNs : R.SteadyNs) =
          median(It->second);
  }
  finish(Rn, Res, M);
  Res.Ops = Rn.Ops;
  return Res;
}

} // namespace perfbench
