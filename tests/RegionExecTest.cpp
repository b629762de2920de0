//===- tests/RegionExecTest.cpp - shared execution-core acceptance tests ----------===//
//
// Acceptance tests for the RegionExecutionCore refactor: the inline runtime
// and the SpecServer are two front ends over one specialization core, so
// the same workload must produce identical instruction counts, identical
// specialization counts, and bit-identical region disassembly through both.
// Also covers the chain model the core introduced inline: golden disassembly
// of single-way and multi-way unrolled loops, CLOCK eviction through
// buildDynamic, and the soft per-region code cap; and the core's shared
// translation table: VMs that adopt translations observe exactly what VMs
// translating for themselves observe, and the table never outlives the
// resident chains.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "server/SpecServer.h"
#include "speculate/SpeculativeRuntime.h"

#include <gtest/gtest.h>

using namespace dyc;

namespace {

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

// Triangular-sum region: one specialization per distinct n under cache_all.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

// The acceptance criterion of the refactor: buildDynamic and buildServer
// share RegionExecutionCore, so the same key sequence produces identical
// per-region counters and bit-identical disassembly (including the
// core-assigned "f.chainN" names) through both front ends.
TEST(RegionExecCore, StatsParityInlineVsServer) {
  const std::vector<int64_t> Keys = {3, 5, 7, 3, 5, 7, 4};

  auto InlineCtx = compile(SumSrc);
  auto E = InlineCtx->buildDynamic();
  int FI = E->findFunction("f");
  for (int64_t N : Keys)
    EXPECT_EQ(E->Machine->run(FI, {Word::fromInt(N)}).asInt(),
              triangular(N));

  auto ServerCtx = compile(SumSrc);
  server::ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = server::MissPolicy::Block;
  auto Server = ServerCtx->buildServer(OptFlags(), std::move(Cfg));
  auto Client = Server->makeClientVM();
  int FS = Server->findFunction("f");
  for (int64_t N : Keys)
    EXPECT_EQ(Client->run(FS, {Word::fromInt(N)}).asInt(), triangular(N));
  Server->drain();

  const runtime::RegionStats &SI = E->RT->stats(0);
  runtime::RegionStats SS = Server->regionStats(0);
  EXPECT_EQ(SI.SpecializationRuns, 4u); // 3, 5, 7, 4
  EXPECT_EQ(SS.SpecializationRuns, SI.SpecializationRuns);
  EXPECT_GT(SI.InstructionsGenerated, 0u);
  EXPECT_EQ(SS.InstructionsGenerated, SI.InstructionsGenerated);
  EXPECT_EQ(SS.CodeCapHits, SI.CodeCapHits);

  std::string DisInline = E->RT->disassembleRegion(0);
  std::string DisServer = Server->disassembleRegion(0);
  EXPECT_FALSE(DisInline.empty());
  EXPECT_EQ(DisInline, DisServer);
  // Chain naming comes from the one core-global counter in both builds.
  EXPECT_NE(DisInline.find("f.chain1"), std::string::npos);
  EXPECT_NE(DisInline.find("f.chain4"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Dispatch parity: both front ends probe one CodeCache per promotion point
// (the server probes copy-on-write copies of it), so the same key sequence
// costs a client the same simulated cycles through either.
//===----------------------------------------------------------------------===//

const char *KeyedSrc = "int f(int n, int x) {\n"
                       "  make_static(n : cache_all);\n"
                       "  return x + n * 3;\n"
                       "}";

/// One client of either front end running f: the inline runtime's own VM,
/// or a client VM of a one-worker Block server.
struct KeyedClient {
  std::unique_ptr<core::DycContext> Ctx;
  std::unique_ptr<core::Executable> E;
  std::unique_ptr<server::SpecServer> Server;
  std::unique_ptr<vm::VM> ServerVM;
  vm::VM *M = nullptr;
  int F = -1;

  KeyedClient(bool UseServer, const vm::ICacheConfig &IC,
              runtime::ChainBudget Budget) {
    Ctx = compile(KeyedSrc);
    if (UseServer) {
      server::ServerConfig Cfg;
      Cfg.NumWorkers = 1;
      Cfg.OnMiss = server::MissPolicy::Block;
      Cfg.IC = IC;
      Cfg.Budget = Budget;
      Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
      ServerVM = Server->makeClientVM();
      M = ServerVM.get();
      F = Server->findFunction("f");
    } else {
      E = Ctx->buildDynamic(OptFlags(), vm::CostModel(), IC, Budget);
      M = E->Machine.get();
      F = E->findFunction("f");
    }
  }

  void call(int64_t K, int64_t X) {
    int64_t N = K * 7919;
    ASSERT_EQ(M->run(F, {Word::fromInt(N), Word::fromInt(X)}).asInt(),
              X + N * 3);
  }

  uint64_t evictions() const {
    return Server ? Server->regionStats(0).Evictions
                  : E->RT->stats(0).Evictions;
  }
};

// An all-hit pass over keys k * 7919 costs the same through both front
// ends. The populate pass does differ on purpose: specialization flushes
// the I-cache of the VM that runs it (UnrollDriver), which inline is the
// client's and in the server the specialization VM's, so both clients'
// I-caches are flushed before the measured pass.
TEST(DispatchParity, AllHitPassCostsTheSameThroughBothFrontEnds) {
  for (int64_t Keys : {5, 400, 3000}) {
    uint64_t Exec[2], Misses[2], Instrs[2];
    for (int S = 0; S != 2; ++S) {
      KeyedClient C(S == 1, vm::ICacheConfig(), {});
      for (int64_t K = 0; K != Keys; ++K)
        C.call(K, K);
      C.M->flushICache();
      uint64_t E0 = C.M->execCycles(), M0 = C.M->icache().misses(),
               I0 = C.M->instrsExecuted();
      for (int64_t K = 0; K != Keys; ++K)
        C.call(K, 2 * K);
      Exec[S] = C.M->execCycles() - E0;
      Misses[S] = C.M->icache().misses() - M0;
      Instrs[S] = C.M->instrsExecuted() - I0;
      if (C.Server) {
        C.Server->drain();
        EXPECT_EQ(C.Server->tenantStats(0).CacheHits,
                  static_cast<uint64_t>(Keys));
      }
    }
    EXPECT_EQ(Exec[0], Exec[1]) << Keys << " keys";
    EXPECT_EQ(Misses[0], Misses[1]) << Keys << " keys";
    EXPECT_EQ(Instrs[0], Instrs[1]) << Keys << " keys";
  }
}

// Churn under a CLOCK budget: 20,000 requests over 128 keys drawn by an
// LCG, with the I-cache off. Evictions erase entries (tombstones in the
// table), so probe counts depend on the whole insert/erase history; both
// front ends must replay it alike, and evict alike.
TEST(DispatchParity, ChurnCostsAndEvictsTheSameThroughBothFrontEnds) {
  vm::ICacheConfig Off;
  Off.Enabled = false;
  for (size_t Budget : {0, 32, 8}) {
    uint64_t Exec[2], Evictions[2];
    for (int S = 0; S != 2; ++S) {
      KeyedClient C(S == 1, Off, runtime::ChainBudget{Budget, 0});
      uint64_t Lcg = 0x2545f4914f6cdd1dull;
      for (int64_t R = 0; R != 20000; ++R) {
        Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
        C.call(static_cast<int64_t>((Lcg >> 33) % 128), R);
      }
      Exec[S] = C.M->execCycles();
      Evictions[S] = C.evictions();
    }
    EXPECT_EQ(Exec[0], Exec[1]) << "budget " << Budget;
    EXPECT_EQ(Evictions[0], Evictions[1]) << "budget " << Budget;
    if (Budget) {
      EXPECT_GT(Evictions[0], 0u) << "budget " << Budget;
    }
  }
}

// Golden output of a complete (single-way) unrolling: the loop over a
// static bound disappears entirely; what remains is the residue of the
// dynamic computation plus the region exit.
TEST(RegionExecCore, GoldenDisassemblySingleWayUnroll) {
  auto Ctx = compile(SumSrc);
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(3)}).asInt(), 3);
  std::string Dis = E->RT->disassembleRegion(0);
  // n=3: the loop is gone; only the dynamic accumulator residue remains
  // (s = 0, then the two non-zero additions), then the region exit.
  const char *Golden =
      "; code object 'f.chain1': 4 instructions, 12 regs\n"
      "    0:  consti r3, 0\n"
      "    1:  addi r3, r3, 1\n"
      "    2:  addi r3, r3, 2\n"
      "    3:  exit_region resume @7\n";
  EXPECT_EQ(Dis, Golden) << "actual:\n" << Dis;
}

// A static double on the left of a floating compare whose right side is
// dynamic: the compare cannot take an immediate or be mirrored, so the
// constant is materialized in its operand class, as a constf (the op table
// gives fcmplt f64 operands).
TEST(RegionExecCore, GoldenDisassemblyStaticFloatCompareOperand) {
  auto Ctx = compile("int g(double k, double x) {\n"
                     "  make_static(k);\n"
                     "  int r = 0;\n"
                     "  if (k < x) { r = 1; }\n"
                     "  return r;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("g");
  EXPECT_EQ(E->Machine->run(F, {Word::fromFloat(2.5), Word::fromFloat(3.0)})
                .asInt(),
            1);
  std::string Dis = E->RT->disassembleRegion(0);
  const char *Golden =
      "; code object 'g.chain1': 6 instructions, 8 regs\n"
      "    0:  constf r6, 2.5\n"
      "    1:  fcmplt r4, r6, r1\n"
      "    2:  condbr r4, @3, @4\n"
      "    3:  exit_region resume @1\n"
      "    4:  consti r6, 0\n"
      "    5:  ret r6\n";
  EXPECT_EQ(Dis, Golden) << "actual:\n" << Dis;
}

// Golden output of a multi-way unrolling: an interpreter-style loop whose
// static pc can revisit a value emits a real backward branch through the
// memoized (context, statics) entry instead of unrolling forever.
TEST(RegionExecCore, GoldenDisassemblyMultiWayUnroll) {
  auto Ctx = compile("int f(int* prog, int* cnt) {\n"
                     "  int pc = 0;\n"
                     "  make_static(prog, pc);\n"
                     "  int acc = 0;\n"
                     "  while (pc < 3) {\n"
                     "    int op = prog@[pc];\n"
                     "    if (op == 0) { acc = acc + 1; pc = pc + 1; }\n"
                     "    else { if (op == 1) {\n"
                     "      cnt[0] = cnt[0] - 1;\n"
                     "      if (cnt[0] > 0) { pc = 0; } else { pc = pc + 1; }\n"
                     "    } else { pc = 3; } }\n"
                     "  }\n"
                     "  return acc;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t Prog = M.allocMemory(3);
  int64_t Cnt = M.allocMemory(1);
  M.memory()[Prog] = Word::fromInt(0);     // acc++
  M.memory()[Prog + 1] = Word::fromInt(1); // loop back while --cnt > 0
  M.memory()[Prog + 2] = Word::fromInt(2); // halt
  M.memory()[Cnt] = Word::fromInt(5);
  int F = E->findFunction("f");
  EXPECT_EQ(M.run(F, {Word::fromInt(Prog), Word::fromInt(Cnt)}).asInt(), 5);
  std::string Dis = E->RT->disassembleRegion(0);
  // The prog@[] opcode fetches fold away; pc=0's acc++ residue is followed
  // by the cnt decrement and a REAL backward branch (`br @1`) to the
  // memoized pc=0 entry — the loop did not unroll 5 times.
  const char *Golden =
      "; code object 'f.chain1': 10 instructions, 37 regs\n"
      "    0:  consti r4, 0\n"
      "    1:  addi r4, r4, 1\n"
      "    2:  load r22, [r1 + 0]\n"
      "    3:  subi r24, r22, 1\n"
      "    4:  store [r1 + 0], r24\n"
      "    5:  load r28, [r1 + 0]\n"
      "    6:  cmpgti r30, r28, 0\n"
      "    7:  condbr r30, @8, @9\n"
      "    8:  br @1\n"
      "    9:  exit_region resume @8\n";
  EXPECT_EQ(Dis, Golden) << "actual:\n" << Dis;
}

// The CLOCK capacity bound now works through the inline front end too:
// a budget of 2 entries keeps at most 2 specializations resident, counts
// the evictions in RegionStats, and respecializes evicted keys correctly.
TEST(RegionExecCore, InlineEvictionBoundsResidency) {
  auto Ctx = compile(SumSrc);
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 2;
  auto E = Ctx->buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                             Budget);
  int F = E->findFunction("f");
  for (int64_t N : {2, 3, 4, 5, 6}) // 5 distinct keys through 2 slots
    EXPECT_EQ(E->Machine->run(F, {Word::fromInt(N)}).asInt(),
              triangular(N));
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.SpecializationRuns, 5u);
  EXPECT_GE(St.Evictions, 3u);
  EXPECT_LE(E->RT->core().residentEntries(0), 2u);

  // Evicted keys miss and respecialize; the resident set stays bounded.
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(2)}).asInt(), triangular(2));
  EXPECT_GE(E->RT->stats(0).SpecializationRuns, 6u);
  EXPECT_LE(E->RT->core().residentEntries(0), 2u);

  // No client is inside dynamic code, so every evicted chain is
  // reclaimable and only the resident ones survive collection.
  E->RT->core().collectChains();
  EXPECT_LE(E->RT->core().liveChains(), 2u);
}

// MaxRegionInstrs is a soft cap surfaced as a counter, not an abort: a
// region that outgrows it still runs to the correct answer.
TEST(RegionExecCore, CodeCapHitsIsSoft) {
  auto Ctx = compile(SumSrc);
  OptFlags Flags;
  Flags.MaxRegionInstrs = 4;
  auto E = Ctx->buildDynamic(Flags);
  int F = E->findFunction("f");
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(20)}).asInt(),
            triangular(20));
  EXPECT_GT(E->RT->stats(0).CodeCapHits, 0u);
  EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 1u);
}

//===----------------------------------------------------------------------===//
// Shared translations
//===----------------------------------------------------------------------===//

/// Everything a VM's run exposes to its environment, plus how many
/// translations it adopted instead of building.
struct VMTrace {
  std::vector<uint64_t> Results;
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  uint64_t ICacheHits = 0;
  uint64_t ICacheMisses = 0;
  std::vector<uint64_t> FuncCalls;
  std::vector<uint64_t> FuncInclusive;
  uint64_t MemHash = 0;
  uint64_t Adopts = 0;
};

void captureVM(vm::VM &M, const vm::Program &Prog, VMTrace &T) {
  T.ExecCycles = M.execCycles();
  T.DynCompCycles = M.dynCompCycles();
  T.InstrsExecuted = M.instrsExecuted();
  T.ICacheHits = M.icache().hits();
  T.ICacheMisses = M.icache().misses();
  for (uint32_t F = 0; F != Prog.numFunctions(); ++F) {
    T.FuncCalls.push_back(M.functionStats(F).Calls);
    T.FuncInclusive.push_back(M.functionStats(F).InclusiveCycles);
  }
  T.Adopts = M.decodeAdopts();
}

void expectSameObservables(const VMTrace &A, const VMTrace &B,
                           const std::string &What) {
  EXPECT_EQ(A.Results, B.Results) << What << ": results";
  EXPECT_EQ(A.ExecCycles, B.ExecCycles) << What << ": ExecCycles";
  EXPECT_EQ(A.DynCompCycles, B.DynCompCycles) << What << ": DynCompCycles";
  EXPECT_EQ(A.InstrsExecuted, B.InstrsExecuted) << What << ": instrs";
  EXPECT_EQ(A.ICacheHits, B.ICacheHits) << What << ": I-cache hits";
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses) << What << ": I-cache misses";
  EXPECT_EQ(A.FuncCalls, B.FuncCalls) << What << ": per-function calls";
  EXPECT_EQ(A.FuncInclusive, B.FuncInclusive)
      << What << ": per-function inclusive cycles";
  EXPECT_EQ(A.MemHash, B.MemHash) << What << ": output memory";
}

/// Runs workload \p W on the executable's own VM, then on a second VM over
/// the same program and runtime — attached to the core's shared table when
/// \p Attach, translating for itself otherwise — and returns the second
/// VM's trace plus the disassembly of every region.
VMTrace traceSecondVM(const workloads::Workload &W, bool Attach,
                      std::string &Disasm) {
  core::DycContext Ctx;
  core::compileWorkload(W, Ctx);
  auto E = Ctx.buildDynamic();
  int FI = E->findFunction(W.RegionFunc);
  EXPECT_GE(FI, 0) << W.Name;
  const uint64_t Invokes = std::min<uint64_t>(W.RegionInvocations, 40);
  workloads::WorkloadSetup S1 = W.Setup(*E->Machine);
  for (uint64_t I = 0; I != Invokes; ++I)
    E->Machine->run(static_cast<uint32_t>(FI), S1.RegionArgs);

  vm::VM Second(E->Prog);
  Second.Hook = E->RT.get();
  if (Attach)
    E->RT->core().attachVM(Second);
  workloads::WorkloadSetup S2 = W.Setup(Second);
  VMTrace T;
  for (uint64_t I = 0; I != Invokes; ++I)
    T.Results.push_back(
        Second.run(static_cast<uint32_t>(FI), S2.RegionArgs).Bits);
  captureVM(Second, E->Prog, T);
  if (S2.OutLen > 0)
    T.MemHash = hashWords(Second.memory().data() + S2.OutBase,
                          static_cast<size_t>(S2.OutLen));
  for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord)
    Disasm += E->RT->disassembleRegion(Ord);
  return T;
}

class SharedTranslationParity
    : public ::testing::TestWithParam<std::string> {};

// Every Table 3 workload: a VM that adopts the translations another VM
// built must observe bit-identical counters, results, and memory to a VM
// translating the same chains for itself, and the chains must not change.
TEST_P(SharedTranslationParity, AdopterMatchesPrivateTranslationOnWorkload) {
  const workloads::Workload &W = workloads::workloadByName(GetParam());
  std::string SharedDis, PrivateDis;
  VMTrace Shared = traceSecondVM(W, /*Attach=*/true, SharedDis);
  VMTrace Private = traceSecondVM(W, /*Attach=*/false, PrivateDis);
  expectSameObservables(Shared, Private, W.Name);
  EXPECT_EQ(SharedDis, PrivateDis) << W.Name << ": golden disassembly";
  EXPECT_GT(Shared.Adopts, 0u) << W.Name << ": no translation was shared";
  EXPECT_EQ(Private.Adopts, 0u) << W.Name;
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Table3, SharedTranslationParity,
                         ::testing::ValuesIn(workloadNames()));

// Eviction churn through the inline runtime: the core releases a chain's
// table entry when it evicts or displaces the chain, so the table never
// holds more entries than the region has resident specializations, and
// unpublishing the region drains it. A VM configured differently from the
// first attached one keeps translating for itself.
TEST(SharedTranslations, InlineChurnReleasesEntriesEagerly) {
  auto Ctx = compile(SumSrc);
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 2;
  auto E = Ctx->buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                             Budget);
  int F = E->findFunction("f");
  runtime::RegionExecutionCore &Core = E->RT->core();
  const int64_t Keys[] = {3, 9, 17, 3, 9, 17, 5, 3, 17, 9, 5, 3};
  for (int Round = 0; Round != 3; ++Round)
    for (int64_t K : Keys) {
      EXPECT_EQ(E->Machine->run(F, {Word::fromInt(K)}).asInt(),
                triangular(K));
      EXPECT_GT(Core.sharedTranslations(), 0u);
      EXPECT_LE(Core.sharedTranslations(), Core.residentEntries(0));
    }
  EXPECT_GT(E->RT->stats(0).Evictions, 0u);

  vm::ICacheConfig Smaller;
  Smaller.SizeBytes = 4 * 1024;
  vm::VM Other(E->Prog, vm::CostModel(), Smaller);
  Other.Hook = E->RT.get();
  Core.attachVM(Other);
  for (int64_t K : Keys)
    EXPECT_EQ(Other.run(F, {Word::fromInt(K)}).asInt(), triangular(K));
  EXPECT_EQ(Other.decodeAdopts(), 0u)
      << "a differently configured VM must not adopt translations";

  E->RT->releaseRegion(*E->Machine, 0);
  EXPECT_EQ(Core.sharedTranslations(), 0u);
}

// A chain evicted while the VM is still inside it — the recursive call's
// dispatch evicts its caller's chain under a one-entry budget — is
// translated and published again when the call returns into it. Collection
// frees such chains once the VM has left them, and releases their late
// entries with them.
TEST(SharedTranslations, CollectionReleasesLatePublishedEntries) {
  auto Ctx = compile("int f(int n, int d) {\n"
                     "  make_static(n : cache_all);\n"
                     "  int r = d;\n"
                     "  if (n > 0) { r = d + f(n - 1, d); }\n"
                     "  return r;\n"
                     "}");
  runtime::ChainBudget Budget;
  Budget.MaxEntries = 1;
  auto E = Ctx->buildDynamic(OptFlags(), vm::CostModel(), vm::ICacheConfig(),
                             Budget);
  int F = E->findFunction("f");
  runtime::RegionExecutionCore &Core = E->RT->core();
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(3), Word::fromInt(2)}).asInt(),
            8);
  EXPECT_EQ(Core.residentEntries(0), 1u);
  EXPECT_GT(Core.sharedTranslations(), Core.residentEntries(0));
  Core.collectChains();
  EXPECT_EQ(Core.sharedTranslations(), Core.residentEntries(0));
}

// The speculative lifecycle (promote, guard, demote) on a machine sharing
// translations observes exactly what a machine translating privately does.
VMTrace traceSpeculative(bool SpecOn, bool Attach) {
  auto Ctx = compile(SumSrc);
  speculate::SpeculationPolicy Policy;
  Policy.Enabled = SpecOn;
  auto E = Ctx->buildSpeculative(Policy);
  if (!Attach)
    E->Machine->setSharedTranslations(nullptr);
  int FI = E->findFunction("f");
  EXPECT_GE(FI, 0);
  VMTrace T;
  // Enough monomorphic calls to clear HotCalls and promote, then a value
  // switch to exercise the guard.
  for (int I = 0; I != 24; ++I)
    T.Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(9)}).Bits);
  for (int I = 0; I != 4; ++I)
    T.Results.push_back(
        E->Machine->run(static_cast<uint32_t>(FI), {Word::fromInt(5)}).Bits);
  captureVM(*E->Machine, E->Prog, T);
  return T;
}

TEST(SharedTranslations, SpeculativePromotionPathIdentical) {
  for (bool SpecOn : {false, true})
    expectSameObservables(traceSpeculative(SpecOn, true),
                          traceSpeculative(SpecOn, false),
                          SpecOn ? "speculation on" : "speculation off");
}

} // namespace
