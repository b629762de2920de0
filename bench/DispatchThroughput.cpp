//===- bench/DispatchThroughput.cpp ------------------------------------------------===//
//
// Host-side dispatch throughput of the run-time's trap handler. For each
// cache policy, compiles a one-region function, then drives
// DycRuntime::dispatch directly (no interpreter in the loop) and measures
// host dispatches per second on three paths:
//
//   hit, inline cache on   — the monomorphic memo short-circuits key
//                            composition, hashing, and probing
//   hit, inline cache off  — the regular key-compose + CodeCache probe
//   miss                   — fresh key every call: probe, specialize,
//                            publish (specialization dominates)
//
// The three paths are timed in several repetitions, INTERLEAVED so a
// machine-load phase hits all of them. Each path keeps its minimum ns per
// dispatch (the repetition least disturbed by scheduler noise); the spread
// columns are the slowest repetition over the fastest, minus one, so a
// reader can tell a real move from noise.
//
// The hit paths must perform ZERO heap allocations per dispatch; this TU
// replaces the global allocation functions with counting versions and the
// timed loops assert on the delta. Simulated counters are out of scope
// here (tests/InterpParityTest.cpp pins them bit-identical IC on/off);
// this binary measures only host speed.
//
// Flags:
//   --quick        shorter and fewer repetitions (CI smoke)
//   --json FILE    write the measurements as JSON (BENCH_dispatch.json)
//   --check        exit nonzero if cache_all's inline-cached hit path is
//                  slower than 2x its hash-probe path (minima), or if
//                  either hit path allocated
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/DycContext.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

namespace {
std::atomic<uint64_t> GHeapAllocs{0};
uint64_t heapAllocs() { return GHeapAllocs.load(std::memory_order_relaxed); }
} // namespace

// Counting replacements for the global allocation functions. Deletes are
// deliberately not counted: "zero allocations per hit dispatch" is about
// acquiring memory on the fast path; frees of warm-up garbage are fine.
void *operator new(std::size_t N) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, std::align_val_t A) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t Align = static_cast<std::size_t>(A);
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, Align, N ? N : 1) != 0)
    throw std::bad_alloc();
  return P;
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return ::operator new(N, A);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace dyc;
using namespace dyc::bench;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One path's timing over the repetitions: its fastest and slowest, in
/// host ns per dispatch.
struct PathRun {
  uint64_t Dispatches = 0; ///< per repetition
  double MinNs = 0;
  double MaxNs = 0;
  uint64_t Allocs = 0; ///< heap allocations during the timed segments

  void add(unsigned Rep, double Seconds, uint64_t NewAllocs) {
    double Ns = Dispatches ? Seconds * 1e9 / Dispatches : 0;
    MinNs = Rep == 0 ? Ns : std::min(MinNs, Ns);
    MaxNs = Rep == 0 ? Ns : std::max(MaxNs, Ns);
    Allocs += NewAllocs;
  }
  double PerSec() const { return MinNs > 0 ? 1e9 / MinNs : 0; }
  double spread() const { return MinNs > 0 ? MaxNs / MinNs - 1 : 0; }
};

/// One compiled region per policy, plus a register file sized for its
/// promotion point so dispatch can be called without an interpreter frame.
struct Built {
  std::unique_ptr<core::DycContext> Ctx; // must outlive E (module refs)
  std::unique_ptr<core::Executable> E;
  int64_t PointId = 0;
  std::vector<ir::Reg> KeyRegs;
  std::vector<Word> Regs;

  void setKey(uint64_t K) {
    for (ir::Reg R : KeyRegs)
      Regs[R] = Word{K};
  }
  vm::RuntimeHook::Target dispatch() {
    return E->RT->dispatch(*E->Machine, PointId, Regs);
  }
};

/// The region body is constant-cost on purpose: the static variable does
/// not drive unrolling, so miss-path specialization time is independent of
/// the key value and the miss loop can walk fresh keys freely.
Built buildFor(const std::string &Policy) {
  Built B;
  B.Ctx = std::make_unique<core::DycContext>();
  std::string Src = "int f(int n) {\n"
                    "  make_static(n : " +
                    Policy +
                    ");\n"
                    "  return n * 3 + 7;\n"
                    "}";
  std::vector<std::string> Errors;
  if (!B.Ctx->compile(Src, Errors))
    fatal("dispatch bench: compile failed: " +
          (Errors.empty() ? Policy : Errors[0]));
  B.E = B.Ctx->buildDynamic();
  int Ord = B.E->regionOrdinalOf("f");
  if (Ord < 0)
    fatal("dispatch bench: region not annotated");
  B.PointId = static_cast<int64_t>(Ord) << 16; // native entry, promo 0
  const bta::PromoPoint &P =
      B.E->RT->core().promo(static_cast<size_t>(Ord), 0);
  B.KeyRegs = P.KeyRegs;
  ir::Reg MaxReg = 0;
  for (ir::Reg R : B.KeyRegs)
    MaxReg = std::max(MaxReg, R);
  B.Regs.assign(MaxReg + 1, Word{0});
  return B;
}

/// Times one repetition of R.Dispatches monomorphic dispatches on an
/// already-published key. Two warm-up dispatches first: the first may miss
/// and specialize (the miss path may have displaced the key), the second
/// reaches steady state (retained key scratch sized, inline cache
/// memoized). Intentionally never releases executors — ActiveRefs just
/// grows, which is harmless and keeps the loop pure dispatch.
void timeHits(Built &B, bool ICOn, unsigned Rep, PathRun &R) {
  B.E->RT->setInlineCacheEnabled(ICOn);
  B.setKey(5);
  B.dispatch();
  B.dispatch();
  uint64_t A0 = heapAllocs();
  double T0 = nowSeconds();
  for (uint64_t I = 0; I != R.Dispatches; ++I)
    B.dispatch();
  R.add(Rep, nowSeconds() - T0, heapAllocs() - A0);
}

/// Times one repetition of R.Dispatches dispatches on never-seen keys:
/// every one misses, specializes, and publishes (except under
/// cache_one_unchecked, where any resident entry serves any key — there
/// this measures the policy's actual behavior on fresh keys, which is a
/// hit). Keys stay below the cache_indexed direct-array range so that
/// policy is measured on its primary plane.
void timeMisses(Built &B, uint64_t FirstKey, unsigned Rep, PathRun &R) {
  B.E->RT->setInlineCacheEnabled(true);
  uint64_t A0 = heapAllocs();
  double T0 = nowSeconds();
  for (uint64_t I = 0; I != R.Dispatches; ++I) {
    B.setKey(FirstKey + I);
    B.dispatch();
  }
  R.add(Rep, nowSeconds() - T0, heapAllocs() - A0);
}

struct Row {
  std::string Policy;
  PathRun HitICOn, HitICOff, Miss;
  uint64_t ICHits = 0;
  double ICSpeedup() const {
    return HitICOff.PerSec() > 0 ? HitICOn.PerSec() / HitICOff.PerSec() : 0;
  }
};

void writeJson(const char *Path, const std::vector<Row> &Rows, unsigned Reps,
               bool Check, bool CheckPassed) {
  JsonReport J;
  J.str("bench", "dispatch_throughput")
      .str("dispatch", vm::VM::dispatchMode())
      .count("reps", Reps)
      .array("policies");
  for (const Row &R : Rows) {
    J.object().str("name", R.Policy);
    for (auto [Name, P] : {std::pair{"hit_ic_on", &R.HitICOn},
                           {"hit_ic_off", &R.HitICOff}, {"miss", &R.Miss}})
      J.object(Name)
          .count("dispatches", P->Dispatches)
          .real("dispatches_per_sec", P->PerSec(), 0)
          .real("ns_per_dispatch", P->MinNs, 2)
          .real("spread", P->spread(), 3)
          .count("heap_allocs", P->Allocs)
          .close();
    J.count("inline_cache_hits", R.ICHits)
        .real("ic_speedup", R.ICSpeedup(), 3)
        .close();
  }
  J.close().boolean("check", Check).boolean("check_passed", CheckPassed);
  J.save(Path);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = quickMode(Argc, Argv);
  bool Check = hasFlag(Argc, Argv, "--check");
  const char *Json = jsonPath(Argc, Argv);

  // Many short repetitions rather than one long run: the minimum needs
  // only one repetition per path to land in a quiet window.
  const unsigned Reps = Quick ? 7 : 9;
  const uint64_t HitN = Quick ? 300000 : 1000000; // per repetition
  const uint64_t MissN = Quick ? 100 : 500;       // per repetition

  const char *Policies[] = {"cache_all", "cache_one", "cache_one_unchecked",
                            "cache_indexed"};

  std::printf("Dispatch throughput (host dispatches/sec; dispatch: %s; min "
              "of %u interleaved repetitions)\n",
              vm::VM::dispatchMode(), Reps);
  std::printf("%-20s %12s %12s %10s %8s %7s %7s %7s %7s %7s\n", "policy",
              "hit IC on", "hit IC off", "miss", "IC gain", "sprd+", "sprd-",
              "sprdM", "alloc+", "alloc-");

  std::vector<Row> Rows;
  bool CheckPassed = true;
  for (const char *Policy : Policies) {
    Built B = buildFor(Policy);
    Row R;
    R.Policy = Policy;
    R.HitICOn.Dispatches = R.HitICOff.Dispatches = HitN;
    R.Miss.Dispatches = MissN;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      timeHits(B, true, Rep, R.HitICOn);
      timeHits(B, false, Rep, R.HitICOff);
      timeMisses(B, /*FirstKey=*/100 + Rep * MissN, Rep, R.Miss);
    }
    R.ICHits = B.E->RT->inlineCacheHits();

    // The monomorphic hit path must never touch the heap, with the inline
    // cache on or off (retained-capacity scratch, no rehash on lookup).
    if (R.HitICOn.Allocs != 0 || R.HitICOff.Allocs != 0)
      CheckPassed = false;
    // The gate from the issue: inline-cached hits at >= 2x the hash-probe
    // path, asserted where the probe is most expensive (cache_all).
    if (std::strcmp(Policy, "cache_all") == 0 && R.ICSpeedup() < 2.0)
      CheckPassed = false;

    std::printf("%-20s %12.0f %12.0f %10.0f %7.2fx %6.1f%% %6.1f%% %6.1f%% "
                "%7llu %7llu\n",
                Policy, R.HitICOn.PerSec(), R.HitICOff.PerSec(),
                R.Miss.PerSec(), R.ICSpeedup(), 100 * R.HitICOn.spread(),
                100 * R.HitICOff.spread(), 100 * R.Miss.spread(),
                (unsigned long long)R.HitICOn.Allocs,
                (unsigned long long)R.HitICOff.Allocs);
    Rows.push_back(std::move(R));
  }

  if (Json)
    writeJson(Json, Rows, Reps, Check, CheckPassed);

  if (Check && !CheckPassed) {
    std::fprintf(stderr,
                 "FAIL: hit-path allocation or cache_all inline-cache "
                 "speedup below 2x\n");
    return 1;
  }
  return 0;
}
