//===- tests/RuntimeTest.cpp - code cache and specializer unit tests --------------===//

#include "core/DycContext.h"
#include "runtime/CodeCache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

using namespace dyc;
using runtime::CacheResult;
using runtime::CodeCache;
using runtime::SpecEntry;

namespace {

std::vector<Word> key(int64_t A, int64_t B = 0) {
  return {Word::fromInt(A), Word::fromInt(B)};
}

/// A published entry for \p Key; its EntryPC stands for the cached code.
std::shared_ptr<SpecEntry> entry(std::vector<Word> Key, uint32_t PC) {
  auto E = std::make_shared<SpecEntry>();
  E->Key = std::move(Key);
  E->Hash = hashWords(E->Key);
  E->EntryPC = PC;
  return E;
}

/// The EntryPC a lookup found, or ~0 on a miss.
uint32_t pcOf(const CacheResult &R) { return R.Entry ? R.Entry->EntryPC : ~0u; }

TEST(CodeCacheTest, CacheAllKeepsEveryVersion) {
  CodeCache C(ir::CachePolicy::CacheAll);
  EXPECT_FALSE(C.lookup(key(1)).Entry);
  C.insert(entry(key(1), 100));
  C.insert(entry(key(2), 200));
  C.insert(entry(key(3), 300));
  EXPECT_EQ(pcOf(C.lookup(key(1))), 100u);
  EXPECT_EQ(pcOf(C.lookup(key(2))), 200u);
  EXPECT_EQ(pcOf(C.lookup(key(3))), 300u);
  EXPECT_EQ(C.entries(), 3u);
}

// Keys that differ only in word order are different keys; inserting a
// resident key replaces its entry and hands the old one back.
TEST(CodeCacheTest, CacheAllReplacesSameKey) {
  CodeCache C(ir::CachePolicy::CacheAll);
  EXPECT_EQ(C.entries(), 0u);
  EXPECT_FALSE(C.insert(entry(key(1, 2), 10)));
  EXPECT_FALSE(C.insert(entry(key(2, 1), 20)));
  EXPECT_EQ(pcOf(C.lookup(key(1, 2))), 10u);
  EXPECT_EQ(pcOf(C.lookup(key(2, 1))), 20u);
  std::shared_ptr<SpecEntry> Old = C.insert(entry(key(1, 2), 11));
  ASSERT_TRUE(Old);
  EXPECT_EQ(Old->EntryPC, 10u);
  EXPECT_EQ(pcOf(C.lookup(key(1, 2))), 11u);
  EXPECT_EQ(C.entries(), 2u);
}

TEST(CodeCacheTest, CacheAllGrowsAndKeepsEntries) {
  CodeCache C(ir::CachePolicy::CacheAll);
  DeterministicRNG RNG(9);
  std::map<uint64_t, uint32_t> Ref;
  for (uint32_t I = 0; I != 5000; ++I) {
    uint64_t K = RNG.next();
    Ref[K] = I;
    C.insert(entry({Word{K}}, I));
  }
  for (const auto &[K, V] : Ref)
    EXPECT_EQ(pcOf(C.lookup(std::vector<Word>{Word{K}})), V);
  EXPECT_EQ(C.entries(), Ref.size());
  // The table stays at no more than 2/3 load.
  EXPECT_LE(C.entries() * 3, C.tableCapacity() * 2);
}

// The probe count is the cache_all dispatch charge's input: at least one
// slot per hashed lookup, one for a miss on an empty table, and none for a
// direct slot.
TEST(CodeCacheTest, ProbeCounting) {
  CodeCache C(ir::CachePolicy::CacheAll);
  EXPECT_EQ(C.lookup(key(5)).Probes, 1u);
  C.insert(entry(key(5), 1));
  CacheResult R = C.lookup(key(5));
  EXPECT_TRUE(R.Entry);
  EXPECT_GE(R.Probes, 1u);
  EXPECT_EQ(C.lookup(key(5)).Probes, R.Probes); // lookup changes nothing
  CodeCache One(ir::CachePolicy::CacheOne);
  One.insert(entry(key(5), 1));
  EXPECT_EQ(One.lookup(key(5)).Probes, 0u);
}

TEST(CodeCacheTest, CacheOneEvicts) {
  CodeCache C(ir::CachePolicy::CacheOne);
  C.insert(entry(key(1), 100));
  EXPECT_TRUE(C.lookup(key(1)).Entry);
  EXPECT_FALSE(C.lookup(key(2)).Entry); // checked: mismatch misses
  std::shared_ptr<SpecEntry> Old = C.insert(entry(key(2), 200));
  ASSERT_TRUE(Old);
  EXPECT_EQ(Old->EntryPC, 100u);
  EXPECT_FALSE(C.lookup(key(1)).Entry); // evicted
  EXPECT_EQ(pcOf(C.lookup(key(2))), 200u);
  EXPECT_EQ(C.entries(), 1u);
}

TEST(CodeCacheTest, CacheIndexedDirectArray) {
  // Index position 1 (the second key word).
  CodeCache C(ir::CachePolicy::CacheIndexed, 1);
  EXPECT_FALSE(C.lookup(key(7, 3)).Entry);
  C.insert(entry(key(7, 3), 300));
  C.insert(entry(key(7, 250), 900));
  EXPECT_EQ(pcOf(C.lookup(key(7, 3))), 300u);
  EXPECT_EQ(pcOf(C.lookup(key(7, 250))), 900u);
  EXPECT_EQ(C.entries(), 2u);
  // Non-index key words are unchecked invariants (documented unsafety).
  EXPECT_EQ(pcOf(C.lookup(key(999, 3))), 300u);
}

TEST(CodeCacheTest, CacheOneUncheckedNeverChecks) {
  CodeCache C(ir::CachePolicy::CacheOneUnchecked);
  C.insert(entry(key(1), 100));
  // The unsafe part, faithfully: a different key still "hits".
  EXPECT_EQ(pcOf(C.lookup(key(999))), 100u);
}

TEST(CodeCacheTest, CacheIndexedOverflowFallsBackToHash) {
  CodeCache C(ir::CachePolicy::CacheIndexed, 1);
  C.insert(entry(key(7, 3), 300));
  // An index value at or past MaxIndexedKey cannot address the direct
  // array; it degrades to the checked double-hash path instead of dying.
  const int64_t Big = static_cast<int64_t>(CodeCache::MaxIndexedKey);
  EXPECT_FALSE(C.lookup(key(7, Big)).Entry);
  C.insert(entry(key(7, Big), 700));
  C.insert(entry(key(7, Big + 12345), 800));
  EXPECT_EQ(pcOf(C.lookup(key(7, Big))), 700u);
  EXPECT_EQ(pcOf(C.lookup(key(7, Big + 12345))), 800u);
  EXPECT_EQ(pcOf(C.lookup(key(7, 3))), 300u); // in-range entry unaffected
  // Unlike in-range probes, the fallback compares the whole key.
  EXPECT_FALSE(C.lookup(key(8, Big)).Entry);
  EXPECT_EQ(C.entries(), 3u);
}

//===----------------------------------------------------------------------===//
// Specializer behavior through the public pipeline.
//===----------------------------------------------------------------------===//

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

TEST(Specializer, CacheAllMemoizesPerValue) {
  auto Ctx = compile("int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  for (int64_t N : {3, 5, 3, 5, 3}) {
    Word R = E->Machine->run(F, {Word::fromInt(N)});
    EXPECT_EQ(R.asInt(), N * (N - 1) / 2);
  }
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.SpecializationRuns, 2u); // n=3 and n=5 only
  EXPECT_EQ(St.CacheHits, 3u);
  EXPECT_EQ(St.Dispatches, 5u);
}

TEST(Specializer, UncheckedPolicyRunsStaleCode) {
  // The documented unsafety of cache_one_unchecked: after specializing
  // for n=3, a call with n=5 reuses the n=3 code.
  auto Ctx = compile("int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_one_unchecked);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(3)}).asInt(), 3);
  EXPECT_EQ(E->Machine->run(F, {Word::fromInt(5)}).asInt(), 3); // stale!
  EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 1u);
}

TEST(Specializer, CacheOneCountsEvictions) {
  // cache_one keeps a single checked version; every key mismatch evicts
  // the resident entry and respecializes, and RegionStats records it.
  auto Ctx = compile("int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_one);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  for (int64_t N : {3, 5, 3, 3, 5}) // evicting transitions: 3->5, 5->3, 3->5
    EXPECT_EQ(E->Machine->run(F, {Word::fromInt(N)}).asInt(),
              N * (N - 1) / 2);
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.SpecializationRuns, 4u);
  EXPECT_EQ(St.Evictions, 3u);
  EXPECT_EQ(St.CacheHits, 1u); // only the back-to-back 3
}

TEST(Specializer, CacheIndexedSpecializesPerByteValue) {
  auto Ctx = compile("int f(int* t, int b) {\n"
                     "  make_static(t, b : cache_indexed);\n"
                     "  return t@[b] * 2;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t T = M.allocMemory(256);
  for (int I = 0; I != 256; ++I)
    M.memory()[T + I] = Word::fromInt(I * 3);
  int F = E->findFunction("f");
  for (int Round = 0; Round != 2; ++Round)
    for (int64_t B : {0, 7, 255, 7, 0})
      EXPECT_EQ(M.run(F, {Word::fromInt(T), Word::fromInt(B)}).asInt(),
                B * 6);
  EXPECT_EQ(E->RT->stats(0).SpecializationRuns, 3u); // 0, 7, 255
  EXPECT_EQ(E->RT->stats(0).CacheHits, 7u);
}

TEST(Specializer, StrengthReductionRewritesPowersOfTwo) {
  auto Ctx = compile("int f(int* a, int x) {\n"
                     "  make_static(a);\n"
                     "  int m = a@[0];\n"
                     "  int d = a@[1];\n"
                     "  return (x * m) + (x / d) + (x % d);\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t A = M.allocMemory(2);
  M.memory()[A] = Word::fromInt(8);      // multiplier 8 -> shl 3
  M.memory()[A + 1] = Word::fromInt(16); // divisor 16 -> shr/and
  int F = E->findFunction("f");
  Word R = M.run(F, {Word::fromInt(A), Word::fromInt(100)});
  EXPECT_EQ(R.asInt(), 100 * 8 + 100 / 16 + 100 % 16);
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.StrengthReduced, 3u);
  // The generated code must contain shift/mask instructions, no mul/div.
  std::string Dis = E->RT->disassembleRegion(0);
  EXPECT_NE(Dis.find("shli"), std::string::npos);
  EXPECT_NE(Dis.find("shri"), std::string::npos);
  EXPECT_NE(Dis.find("andi"), std::string::npos);
  EXPECT_EQ(Dis.find("mul"), std::string::npos);
  EXPECT_EQ(Dis.find("div"), std::string::npos);
}

TEST(Specializer, ZeroAndCopyPropagationOnFloats) {
  auto Ctx = compile("double f(double* w, double x, double y) {\n"
                     "  make_static(w);\n"
                     "  double a = x * w@[0];\n" // w[0] == 0.0 -> dead
                     "  double b = y * w@[1];\n" // w[1] == 1.0 -> copy
                     "  return a + b;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t W = M.allocMemory(2);
  M.memory()[W] = Word::fromFloat(0.0);
  M.memory()[W + 1] = Word::fromFloat(1.0);
  int F = E->findFunction("f");
  Word R = M.run(F, {Word::fromInt(W), Word::fromFloat(123.0),
                     Word::fromFloat(0.5)});
  EXPECT_DOUBLE_EQ(R.asFloat(), 0.5);
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_GE(St.ZcpApplied, 2u);
  // No multiply survives: a+b collapsed to y (0 + y*1).
  std::string Dis = E->RT->disassembleRegion(0);
  EXPECT_EQ(Dis.find("fmul"), std::string::npos);
}

TEST(Specializer, DeferredDeadChainsNeverEmit) {
  // A load feeding only a multiply-by-zero must not be emitted at all.
  auto Ctx = compile("double f(double* w, double* img, int i) {\n"
                     "  make_static(w);\n"
                     "  double x = img[i];\n"
                     "  return x * w@[0];\n"
                     "}");
  auto E = Ctx->buildDynamic();
  vm::VM &M = *E->Machine;
  int64_t W = M.allocMemory(1);
  int64_t Img = M.allocMemory(4);
  M.memory()[W] = Word::fromFloat(0.0);
  M.memory()[Img + 2] = Word::fromFloat(9.0);
  int F = E->findFunction("f");
  Word R = M.run(F, {Word::fromInt(W), Word::fromInt(Img),
                     Word::fromInt(2)});
  EXPECT_DOUBLE_EQ(R.asFloat(), 0.0);
  EXPECT_GE(E->RT->stats(0).DeadAssignsEliminated, 1u);
  std::string Dis = E->RT->disassembleRegion(0);
  EXPECT_EQ(Dis.find("load"), std::string::npos) << Dis;
}

TEST(Specializer, StaticCallMemoization) {
  auto Ctx = compile("extern pure double cos(double);\n"
                     "double f(int n, double x) {\n"
                     "  int i;\n"
                     "  make_static(n, i);\n"
                     "  double s = x;\n"
                     "  for (i = 0; i < n; i = i + 1) {\n"
                     "    s = s + cos((double)(i % 2));\n" // 2 distinct args
                     "  }\n"
                     "  return s;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  Word R = E->Machine->run(F, {Word::fromInt(8), Word::fromFloat(0.0)});
  EXPECT_NEAR(R.asFloat(), 4 * std::cos(0.0) + 4 * std::cos(1.0), 1e-12);
  const runtime::RegionStats &St = E->RT->stats(0);
  EXPECT_EQ(St.StaticCallsExecuted, 8u);
  EXPECT_EQ(St.StaticCallMemoHits, 6u); // only cos(0) and cos(1) computed
}

TEST(Specializer, StaticCallToBytecodeFunctionChargedAsOverhead) {
  auto Ctx = compile("pure int table(int k) { return k * k + 3; }\n"
                     "int f(int n) {\n"
                     "  make_static(n);\n"
                     "  return table(n) + 1;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  int F = E->findFunction("f");
  uint64_t Exec0 = E->Machine->execCycles();
  Word R = E->Machine->run(F, {Word::fromInt(6)});
  EXPECT_EQ(R.asInt(), 40);
  // The nested run of `table` must be accounted to dynamic compilation,
  // not execution; the residual region is a materialized constant.
  EXPECT_GT(E->Machine->dynCompCycles(), 0u);
  // Residual execution: one hashed dispatch (~65 cycles), a materialized
  // constant, a return, and two cold I-cache misses — far below the cost
  // of actually running `table` (which would add a call, multiply, ...).
  uint64_t ExecCost = E->Machine->execCycles() - Exec0;
  EXPECT_LT(ExecCost, 150u) << "nested static call leaked into exec time";
}

TEST(Specializer, RegionExitResumesNativeCode) {
  auto Ctx = compile("int f(int n, int d) {\n"
                     "  make_static(n);\n"
                     "  int t = n * 7;\n"
                     "  int u = t + d;\n"     // region: t static, d dynamic
                     "  int v = u * 2 + d;\n" // no statics live: native
                     "  return v;\n"
                     "}");
  auto E = Ctx->buildDynamic();
  auto S = Ctx->buildStatic();
  int F = E->findFunction("f");
  for (int64_t N : {1, 4}) {
    for (int64_t D : {0, 9}) {
      std::vector<Word> Args = {Word::fromInt(N), Word::fromInt(D)};
      EXPECT_EQ(E->Machine->run(F, Args).asInt(),
                S->Machine->run(F, Args).asInt());
    }
  }
}

TEST(Specializer, MultiWayUnrollEmitsBackwardBranch) {
  // An interpreted loop must become a real loop in generated code, not an
  // infinite unrolling: the memoized (context, pc) pair is reused.
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
  Word R = M.run(F, {Word::fromInt(Prog), Word::fromInt(Cnt)});
  EXPECT_EQ(R.asInt(), 5); // executed 5 times via a real backward branch
  EXPECT_LT(E->RT->stats(0).InstructionsGenerated, 64u)
      << "interpreted loop was unrolled instead of becoming a branch";
}

} // namespace
