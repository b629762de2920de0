//===- tests/InterpParityTest.cpp - engine cycle-parity golden tests --------------===//
//
// The predecoded superblock engine's hard invariant: every simulated
// counter — ExecCycles, DynCompCycles, InstrsExecuted, per-function calls
// and inclusive cycles, I-cache hits and misses — is bit-identical to the
// legacy per-instruction switch loop. These tests run every Table 3
// workload through both engines (fresh context and VM each, identical
// inputs) under six I-cache geometries, and compare the complete
// observable state, including an eviction + re-specialization sequence
// that exercises translation-cache invalidation (Emitter Version bumps,
// unpublish callbacks, BaseAddr keying). Each workload run ends by
// unpublishing every chain and checking that all of them are collected:
// both engines count every frame out of the chain it leaves.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>

using namespace dyc;
using workloads::Workload;
using workloads::WorkloadSetup;

namespace {

/// Everything an engine run exposes to its environment.
struct RunTrace {
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  uint64_t ICacheHits = 0;
  uint64_t ICacheMisses = 0;
  std::vector<uint64_t> Results; ///< bit pattern of each invocation's result
  std::vector<uint64_t> FuncCalls;
  std::vector<uint64_t> FuncInclusive;
  uint64_t MemHash = 0; ///< hash of the workload's validated output range
};

uint64_t hashRange(vm::VM &M, int64_t Base, int64_t Len) {
  if (Len <= 0)
    return 0;
  return hashWords(M.memory().data() + Base, static_cast<size_t>(Len));
}

/// Compiles \p W fresh, builds the dynamic configuration under the
/// I-cache geometry \p IC, pins \p Engine, and invokes the region function
/// \p Invokes times on the workload's own inputs.
RunTrace traceWorkload(const Workload &W, vm::VM::EngineKind Engine,
                       uint64_t Invokes, const vm::ICacheConfig &IC) {
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  auto E = Ctx.buildDynamic(OptFlags(), vm::CostModel(), IC);
  E->Machine->Engine = Engine;
  WorkloadSetup S = W.Setup(*E->Machine);
  int FI = E->findFunction(W.RegionFunc);
  EXPECT_GE(FI, 0) << W.Name << ": region function not found";

  RunTrace T;
  for (uint64_t I = 0; I != Invokes; ++I)
    T.Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), S.RegionArgs).Bits);

  T.ExecCycles = E->Machine->execCycles();
  T.DynCompCycles = E->Machine->dynCompCycles();
  T.InstrsExecuted = E->Machine->instrsExecuted();
  T.ICacheHits = E->Machine->icache().hits();
  T.ICacheMisses = E->Machine->icache().misses();
  for (uint32_t F = 0; F != E->Prog.numFunctions(); ++F) {
    T.FuncCalls.push_back(E->Machine->functionStats(F).Calls);
    T.FuncInclusive.push_back(E->Machine->functionStats(F).InclusiveCycles);
  }
  T.MemHash = hashRange(*E->Machine, S.OutBase, S.OutLen);

  // Every frame that entered a chain has left it, by Ret, ExitRegion or a
  // Dispatch trap (each taken by some of the programs), so once every
  // chain is unpublished, collection frees them all.
  for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord)
    E->RT->releaseRegion(*E->Machine, Ord);
  E->RT->core().collectChains();
  EXPECT_EQ(E->RT->core().liveChains(), 0u)
      << W.Name << ": a chain kept an executor after every frame left it";
  return T;
}

void expectIdentical(const RunTrace &L, const RunTrace &P,
                     const std::string &What) {
  EXPECT_EQ(L.ExecCycles, P.ExecCycles) << What << ": ExecCycles";
  EXPECT_EQ(L.DynCompCycles, P.DynCompCycles) << What << ": DynCompCycles";
  EXPECT_EQ(L.InstrsExecuted, P.InstrsExecuted) << What << ": InstrsExecuted";
  EXPECT_EQ(L.ICacheHits, P.ICacheHits) << What << ": ICache hits";
  EXPECT_EQ(L.ICacheMisses, P.ICacheMisses) << What << ": ICache misses";
  EXPECT_EQ(L.Results, P.Results) << What << ": invocation results";
  EXPECT_EQ(L.FuncCalls, P.FuncCalls) << What << ": per-function calls";
  EXPECT_EQ(L.FuncInclusive, P.FuncInclusive)
      << What << ": per-function inclusive cycles";
  EXPECT_EQ(L.MemHash, P.MemHash) << What << ": output memory";
}

// The I-cache geometry axis, the default first. The predecoded engine
// charges each block through ICache::chargeBlock, whose direct-mapped
// fast path works on the sets and tags its translation split under the
// VM's geometry; the legacy engine's per-fetch access() is the oracle.
struct Geometry {
  const char *Name;
  vm::ICacheConfig IC;
};

vm::ICacheConfig geometry(uint32_t SizeBytes, uint32_t BlockBytes,
                          uint32_t Assoc, bool Enabled = true) {
  vm::ICacheConfig IC;
  IC.SizeBytes = SizeBytes;
  IC.BlockBytes = BlockBytes;
  IC.Assoc = Assoc;
  IC.Enabled = Enabled;
  return IC;
}

const Geometry Geometries[] = {
    // 8 KB direct-mapped, 32-byte lines.
    {"default", vm::ICacheConfig()},
    // pnmconvol's generated code has straight-line blocks of hundreds of
    // instructions, more lines than this cache has sets, so a block
    // evicts its own lines.
    {"1KB_direct", geometry(1024, 32, 1)},
    // The same footprint pressure with LRU choices to make.
    {"1KB_2way", geometry(1024, 32, 2)},
    {"4KB_2way", geometry(4096, 32, 2)},
    {"8KB_4way_64B", geometry(8192, 64, 4)},
    {"disabled", geometry(8192, 32, 1, /*Enabled=*/false)},
};

/// One Table 3 program under one geometry.
struct ParityCase {
  std::string Workload;
  size_t Geometry; ///< index into Geometries
};

/// Prints the program's quoted name, then the geometry unless it is the
/// default, so a program's default-geometry case is named as a plain
/// per-program case.
void PrintTo(const ParityCase &C, std::ostream *OS) {
  *OS << '"' << C.Workload << '"';
  if (C.Geometry != 0)
    *OS << " under " << Geometries[C.Geometry].Name;
}

class InterpParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(InterpParity, CountersBitIdenticalOnWorkload) {
  const Workload &W = workloads::workloadByName(GetParam().Workload);
  const Geometry &G = Geometries[GetParam().Geometry];
  uint64_t Invokes = std::min<uint64_t>(W.RegionInvocations, 40);
  RunTrace L = traceWorkload(W, vm::VM::EngineKind::Legacy, Invokes, G.IC);
  RunTrace P = traceWorkload(W, vm::VM::EngineKind::Predecoded, Invokes, G.IC);
  expectIdentical(L, P, W.Name + " under " + G.Name);
  if (G.IC.Enabled)
    EXPECT_GT(P.ICacheMisses, 0u);
  else
    EXPECT_EQ(P.ICacheMisses, 0u);
}

std::vector<ParityCase> parityCases() {
  std::vector<ParityCase> Cases;
  for (const Workload &W : workloads::allWorkloads())
    for (size_t G = 0; G != std::size(Geometries); ++G)
      Cases.push_back({W.Name, G});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Table3, InterpParity,
                         ::testing::ValuesIn(parityCases()));

// Eviction + re-specialization: a tight chain budget forces CLOCK eviction
// and unpublish (which eagerly invalidates translations), and revisiting
// evicted keys forces re-specialization into fresh chains at fresh
// BaseAddrs. Every counter must still match the legacy engine exactly.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

RunTrace traceEvictionSequence(vm::VM::EngineKind Engine) {
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  EXPECT_TRUE(Ctx.compile(SumSrc, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 2; // evict aggressively
  auto E = Ctx.buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                            Budget);
  E->Machine->Engine = Engine;
  int FI = E->findFunction("f");
  EXPECT_GE(FI, 0);

  RunTrace T;
  // Rotate through more keys than the budget holds, revisiting evicted
  // ones, so chains are published, evicted, and re-specialized repeatedly.
  const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
  for (int Round = 0; Round != 3; ++Round)
    for (int64_t K : Keys)
      T.Results.push_back(
          E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(K)})
              .Bits);

  T.ExecCycles = E->Machine->execCycles();
  T.DynCompCycles = E->Machine->dynCompCycles();
  T.InstrsExecuted = E->Machine->instrsExecuted();
  T.ICacheHits = E->Machine->icache().hits();
  T.ICacheMisses = E->Machine->icache().misses();
  for (uint32_t F = 0; F != E->Prog.numFunctions(); ++F) {
    T.FuncCalls.push_back(E->Machine->functionStats(F).Calls);
    T.FuncInclusive.push_back(E->Machine->functionStats(F).InclusiveCycles);
  }

  if (Engine == vm::VM::EngineKind::Predecoded) {
    // The engine really ran on translations, and eager invalidation kept
    // the cache from accumulating one entry per evicted chain.
    EXPECT_GT(E->Machine->decodeBuilds(), 0u);
    EXPECT_LE(E->Machine->decodedObjects(),
              E->Prog.numFunctions() + Budget.MaxEntries + 2);
  }
  return T;
}

TEST(InterpParity, EvictionAndRespecializationSequence) {
  RunTrace L = traceEvictionSequence(vm::VM::EngineKind::Legacy);
  RunTrace P = traceEvictionSequence(vm::VM::EngineKind::Predecoded);
  expectIdentical(L, P, "eviction sequence");
}

// The triangular sums themselves must of course be right.
TEST(InterpParity, EvictionSequenceComputesCorrectSums) {
  RunTrace P = traceEvictionSequence(vm::VM::EngineKind::Predecoded);
  const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
  size_t Idx = 0;
  for (int Round = 0; Round != 3; ++Round)
    for (int64_t K : Keys)
      EXPECT_EQ(static_cast<int64_t>(P.Results[Idx++]), K * (K - 1) / 2);
}

// Dispatch-heavy workload under a tight chain budget, run with the
// run-time's per-site inline caches on and off across both engines. The
// inline cache is a host-speed memo only: every simulated counter — cycle
// accounts, the region's dispatch/hit/miss/eviction statistics, even the
// average probe count the cost model reports — must be bit-identical in
// all four configurations. Monomorphic streaks (4x repeats) make the memo
// actually fire; the key rotation and evictions force it to invalidate.
struct DispatchTrace {
  RunTrace T;
  uint64_t Dispatches = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Evictions = 0;
  uint64_t SpecRuns = 0;
  uint64_t ICHits = 0; ///< host-level, expected to differ with IC on/off
  double AvgProbes = 0;
};

DispatchTrace traceDispatchHeavy(vm::VM::EngineKind Engine, bool ICOn) {
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  EXPECT_TRUE(Ctx.compile(SumSrc, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 2;
  auto E = Ctx.buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                            Budget);
  E->Machine->Engine = Engine;
  E->RT->setInlineCacheEnabled(ICOn);
  int FI = E->findFunction("f");
  EXPECT_GE(FI, 0);
  int Ord = E->regionOrdinalOf("f");
  EXPECT_GE(Ord, 0);

  DispatchTrace D;
  const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
  for (int Round = 0; Round != 2; ++Round)
    for (int64_t K : Keys)
      for (int Rep = 0; Rep != 4; ++Rep)
        D.T.Results.push_back(
            E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(K)})
                .Bits);

  D.T.ExecCycles = E->Machine->execCycles();
  D.T.DynCompCycles = E->Machine->dynCompCycles();
  D.T.InstrsExecuted = E->Machine->instrsExecuted();
  D.T.ICacheHits = E->Machine->icache().hits();
  D.T.ICacheMisses = E->Machine->icache().misses();
  for (uint32_t F = 0; F != E->Prog.numFunctions(); ++F) {
    D.T.FuncCalls.push_back(E->Machine->functionStats(F).Calls);
    D.T.FuncInclusive.push_back(E->Machine->functionStats(F).InclusiveCycles);
  }

  const runtime::RegionStats &St = E->RT->stats(static_cast<size_t>(Ord));
  D.Dispatches = St.Dispatches;
  D.CacheHits = St.CacheHits;
  D.CacheMisses = St.CacheMisses;
  D.Evictions = St.Evictions;
  D.SpecRuns = St.SpecializationRuns;
  D.AvgProbes = E->RT->avgCacheProbes(static_cast<size_t>(Ord));
  D.ICHits = E->RT->inlineCacheHits();
  EXPECT_EQ(E->RT->inlineCacheEnabled(), ICOn);
  return D;
}

TEST(InterpParity, InlineCachePreservesAllCountersUnderEviction) {
  DispatchTrace Base = traceDispatchHeavy(vm::VM::EngineKind::Legacy, false);
  EXPECT_EQ(Base.ICHits, 0u) << "IC off must never take the fast path";
  EXPECT_GT(Base.Evictions, 0u) << "workload must exercise eviction";
  EXPECT_GT(Base.CacheMisses, 0u);

  struct Config {
    vm::VM::EngineKind Engine;
    bool ICOn;
    const char *Name;
  };
  const Config Configs[] = {
      {vm::VM::EngineKind::Legacy, true, "legacy, IC on"},
      {vm::VM::EngineKind::Predecoded, false, "predecoded, IC off"},
      {vm::VM::EngineKind::Predecoded, true, "predecoded, IC on"},
  };
  for (const Config &C : Configs) {
    DispatchTrace D = traceDispatchHeavy(C.Engine, C.ICOn);
    expectIdentical(Base.T, D.T, C.Name);
    EXPECT_EQ(Base.Dispatches, D.Dispatches) << C.Name << ": Dispatches";
    EXPECT_EQ(Base.CacheHits, D.CacheHits) << C.Name << ": CacheHits";
    EXPECT_EQ(Base.CacheMisses, D.CacheMisses) << C.Name << ": CacheMisses";
    EXPECT_EQ(Base.Evictions, D.Evictions) << C.Name << ": Evictions";
    EXPECT_EQ(Base.SpecRuns, D.SpecRuns) << C.Name << ": SpecializationRuns";
    EXPECT_DOUBLE_EQ(Base.AvgProbes, D.AvgProbes)
        << C.Name << ": avgCacheProbes";
    if (C.ICOn)
      EXPECT_GT(D.ICHits, 0u)
          << C.Name << ": monomorphic streaks must hit the inline cache";
    else
      EXPECT_EQ(D.ICHits, 0u) << C.Name;
  }
}

// Satellite regression: Program::findFunction now resolves through a name
// map; duplicate registrations must keep the old scan's first-wins order.
TEST(InterpParity, FindFunctionFirstRegistrationWins) {
  vm::Program Prog;
  vm::CodeObject A;
  A.Name = "dup";
  A.Code.push_back(vm::Instr(vm::Op::Ret, vm::NoReg));
  vm::CodeObject B = A;
  uint32_t First = Prog.addFunction(std::move(A));
  Prog.addFunction(std::move(B));
  EXPECT_EQ(Prog.findFunction("dup"), static_cast<int>(First));
  EXPECT_EQ(Prog.findFunction("absent"), -1);
}

} // namespace
