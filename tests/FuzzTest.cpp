//===- tests/FuzzTest.cpp - property-based equivalence testing --------------------===//
//
// The system's core invariant: for ANY annotated program, ANY inputs, and
// ANY combination of optimization toggles, the dynamically compiled
// configuration computes exactly what the statically compiled one does.
// This suite generates random annotated MiniC programs (structured so
// they always terminate), runs both configurations on random inputs under
// every single-toggle-off configuration plus all-on/all-off, and compares
// results and output memory bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSchedule.h"

#include "core/DycContext.h"

#include <gtest/gtest.h>

using namespace dyc;

namespace {

/// Generates a random terminating annotated function over:
///   a  — a static int array (annotated, read via a mix of @ and plain loads)
///   b  — a dynamic int array (read/written)
///   n  — the static trip count
///   x,y — dynamic scalars
struct ProgramGen {
  DeterministicRNG RNG;
  explicit ProgramGen(uint64_t Seed) : RNG(Seed) {}

  std::string pick(std::initializer_list<const char *> Opts) {
    size_t K = RNG.nextBelow(Opts.size());
    return *(Opts.begin() + K);
  }

  /// A random integer expression of bounded depth.
  std::string expr(int Depth) {
    if (Depth <= 0) {
      switch (RNG.nextBelow(8)) {
      case 0: return "i";
      case 1: return "x";
      case 2: return "y";
      case 3: return "s0";
      case 4: return "s1";
      case 5: return "a@[i]";
      case 6: return "a[i]";
      default:
        return formatString("%d", (int)RNG.nextBelow(64) - 16);
      }
    }
    switch (RNG.nextBelow(10)) {
    case 0:
      return "(" + expr(Depth - 1) + " + " + expr(Depth - 1) + ")";
    case 1:
      return "(" + expr(Depth - 1) + " - " + expr(Depth - 1) + ")";
    case 2:
      return "(" + expr(Depth - 1) + " * " + expr(Depth - 1) + ")";
    case 3:
      return "(" + expr(Depth - 1) + " & " + expr(Depth - 1) + ")";
    case 4:
      return "(" + expr(Depth - 1) + " | " + expr(Depth - 1) + ")";
    case 5:
      return "(" + expr(Depth - 1) + " ^ " + expr(Depth - 1) + ")";
    case 6:
      return "(" + expr(Depth - 1) + " < " + expr(Depth - 1) + ")";
    case 7: // division by a guaranteed-nonzero small value
      return "(" + expr(Depth - 1) + " / (1 + (" + expr(Depth - 1) +
             " & 7)))";
    case 8: // remainder, same guard
      return "(" + expr(Depth - 1) + " % (1 + (" + expr(Depth - 1) +
             " & 3)))";
    default:
      return "(b[(" + expr(Depth - 1) + ") & 15] + " + expr(Depth - 1) +
             ")";
    }
  }

  std::string stmt() {
    switch (RNG.nextBelow(7)) {
    case 5:
      // A guarded continue exercises the for-latch path.
      return "if ((" + expr(1) + " & 7) == 3) { continue; }";
    case 6:
      return "if ((" + expr(1) + " & 15) == 9) { break; }";
    case 0:
      return "s0 = " + expr(2) + ";";
    case 1:
      return "s1 = " + expr(2) + ";";
    case 2:
      return "b[(" + expr(1) + ") & 15] = " + expr(2) + ";";
    case 3:
      return "if (" + expr(1) + " < " + expr(1) + ") { s0 = " + expr(1) +
             "; } else { s1 = " + expr(1) + "; }";
    default:
      return "if (" + expr(1) + ") { b[i & 15] = " + expr(1) + "; }";
    }
  }

  std::string generate() {
    std::string Policy =
        pick({": cache_all", ": cache_one", ": cache_one_unchecked",
              ": cache_indexed"});
    std::string Body;
    unsigned NumStmts = 2 + RNG.nextBelow(4);
    for (unsigned I = 0; I != NumStmts; ++I)
      Body += "    " + stmt() + "\n";
    std::string Src = "int f(int* a, int* b, int n, int x, int y) {\n"
                      "  int i;\n"
                      "  make_static(a, n, i " +
                      Policy +
                      ");\n"
                      "  int s0 = 1;\n"
                      "  int s1 = y;\n"
                      "  for (i = 0; i < n; i = i + 1) {\n" +
                      Body +
                      "  }\n"
                      "  return s0 ^ s1;\n"
                      "}\n";
    return Src;
  }
};

struct RunResult {
  int64_t Ret = 0;
  std::vector<uint64_t> BMem;
};

RunResult runConfig(core::Executable &E, int64_t N, int64_t X, int64_t Y,
                    const std::vector<int64_t> &AVals,
                    const std::vector<int64_t> &BVals) {
  vm::VM &M = *E.Machine;
  int64_t A = M.allocMemory(static_cast<int64_t>(AVals.size()));
  int64_t B = M.allocMemory(static_cast<int64_t>(BVals.size()));
  for (size_t I = 0; I != AVals.size(); ++I)
    M.memory()[A + static_cast<int64_t>(I)] = Word::fromInt(AVals[I]);
  for (size_t I = 0; I != BVals.size(); ++I)
    M.memory()[B + static_cast<int64_t>(I)] = Word::fromInt(BVals[I]);
  int F = E.findFunction("f");
  EXPECT_GE(F, 0);
  Word R = M.run(static_cast<uint32_t>(F),
                 {Word::fromInt(A), Word::fromInt(B), Word::fromInt(N),
                  Word::fromInt(X), Word::fromInt(Y)});
  RunResult Out;
  Out.Ret = R.asInt();
  for (size_t I = 0; I != BVals.size(); ++I)
    Out.BMem.push_back(M.memory()[B + static_cast<int64_t>(I)].Bits);
  return Out;
}

class FuzzEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalence, StaticAndDynamicAgreeUnderAllConfigs) {
  uint64_t Seed = 0xf00d + static_cast<uint64_t>(GetParam()) * 7919;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors))
      << Src << "\n" << (Errors.empty() ? "" : Errors[0]);

  DeterministicRNG In(Seed ^ 0xabcdef);
  const int64_t N = 1 + static_cast<int64_t>(In.nextBelow(6));
  std::vector<int64_t> AVals, BVals;
  for (int I = 0; I != 16; ++I) {
    // Bias the static array toward the ZCP/SR special values.
    switch (In.nextBelow(5)) {
    case 0: AVals.push_back(0); break;
    case 1: AVals.push_back(1); break;
    case 2: AVals.push_back(8); break;
    default: AVals.push_back(static_cast<int64_t>(In.nextBelow(100)) - 50);
    }
    BVals.push_back(static_cast<int64_t>(In.nextBelow(1000)) - 500);
  }
  int64_t X = static_cast<int64_t>(In.nextBelow(1000)) - 500;
  int64_t Y = static_cast<int64_t>(In.nextBelow(1000)) - 500;

  auto StaticE = Ctx.buildStatic();
  RunResult Ref = runConfig(*StaticE, N, X, Y, AVals, BVals);

  // All-on, all-off, and each single toggle off.
  std::vector<OptFlags> Configs;
  Configs.emplace_back();
  {
    OptFlags AllOff;
    for (unsigned T = 0; T != OptFlags::NumToggles; ++T)
      AllOff.toggle(T) = false;
    Configs.push_back(AllOff);
  }
  for (unsigned T = 0; T != OptFlags::NumToggles; ++T) {
    OptFlags Fl;
    Fl.toggle(T) = false;
    Configs.push_back(Fl);
  }

  for (size_t C = 0; C != Configs.size(); ++C) {
    auto DynE = Ctx.buildDynamic(Configs[C]);
    RunResult Got = runConfig(*DynE, N, X, Y, AVals, BVals);
    EXPECT_EQ(Got.Ret, Ref.Ret)
        << "config " << C << " seed " << Seed << "\n" << Src;
    EXPECT_EQ(Got.BMem, Ref.BMem)
        << "config " << C << " seed " << Seed << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, FuzzEquivalence,
                         ::testing::Range(0, 200));

//===----------------------------------------------------------------------===//
// Optimizer round schedule: sharing analyses within a round must print
// the same module and count the same pass applications as rebuilding them
// before every pass (tests/ReferenceSchedule.h).
//===----------------------------------------------------------------------===//

class OptScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OptScheduleFuzz, SharedAnalysesMatchRebuildingEveryPass) {
  uint64_t Seed = 0x0b7 + static_cast<uint64_t>(GetParam()) * 7907;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();
  reftest::expectSchedulesAgree(Src, formatString("seed %llu\n",
                                                  (unsigned long long)Seed) +
                                         Src);
}

INSTANTIATE_TEST_SUITE_P(Programs, OptScheduleFuzz, ::testing::Range(0, 100));

//===----------------------------------------------------------------------===//
// Floating-point fuzzing: the ZCP/DAE machinery treats 0.0 and 1.0
// specially, so the static weight vector is biased toward them; results
// must still match the static baseline bit-for-bit.
//===----------------------------------------------------------------------===//

struct FloatGen {
  DeterministicRNG RNG;
  explicit FloatGen(uint64_t Seed) : RNG(Seed) {}

  std::string fexpr(int Depth) {
    if (Depth <= 0) {
      switch (RNG.nextBelow(6)) {
      case 0: return "x";
      case 1: return "acc";
      case 2: return "w@[i]";
      case 3: return "b[i]";
      case 4: return "(double)i";
      default:
        return formatString("%d.%u", (int)RNG.nextBelow(4),
                            (unsigned)RNG.nextBelow(100));
      }
    }
    switch (RNG.nextBelow(5)) {
    case 0: return "(" + fexpr(Depth - 1) + " + " + fexpr(Depth - 1) + ")";
    case 1: return "(" + fexpr(Depth - 1) + " - " + fexpr(Depth - 1) + ")";
    case 2: return "(" + fexpr(Depth - 1) + " * " + fexpr(Depth - 1) + ")";
    case 3: // division by a value bounded away from zero
      return "(" + fexpr(Depth - 1) + " / (1.5 + " + fexpr(Depth - 1) +
             " * 0.0))";
    default:
      return "(" + fexpr(Depth - 1) + " * w@[(i + 1) & 7])";
    }
  }

  std::string generate() {
    std::string Body;
    unsigned NumStmts = 2 + RNG.nextBelow(3);
    for (unsigned I = 0; I != NumStmts; ++I) {
      if (RNG.nextBelow(3) == 0)
        Body += "    b[i & 7] = " + fexpr(2) + ";\n";
      else
        Body += "    acc = " + fexpr(2) + ";\n";
    }
    return "double f(double* w, double* b, int n, double x) {\n"
           "  int i;\n"
           "  make_static(w, n, i : cache_all);\n"
           "  double acc = 0.0;\n"
           "  for (i = 0; i < n; i = i + 1) {\n" +
           Body +
           "  }\n"
           "  return acc;\n"
           "}\n";
  }
};

class FloatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FloatFuzz, FloatProgramsAgreeBitForBit) {
  uint64_t Seed = 0xf10a7 + static_cast<uint64_t>(GetParam()) * 104729;
  FloatGen Gen(Seed);
  std::string Src = Gen.generate();
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors))
      << Src << (Errors.empty() ? "" : Errors[0]);

  auto Run = [&](core::Executable &E) {
    vm::VM &M = *E.Machine;
    int64_t W = M.allocMemory(8);
    int64_t B = M.allocMemory(8);
    DeterministicRNG In(Seed ^ 0x55);
    for (int I = 0; I != 8; ++I) {
      // Bias toward the special values 0.0 and 1.0.
      switch (In.nextBelow(4)) {
      case 0: M.memory()[W + I] = Word::fromFloat(0.0); break;
      case 1: M.memory()[W + I] = Word::fromFloat(1.0); break;
      default:
        M.memory()[W + I] = Word::fromFloat(In.nextDouble() * 4 - 2);
      }
      M.memory()[B + I] = Word::fromFloat(In.nextDouble() * 10 - 5);
    }
    int F = E.findFunction("f");
    Word R = M.run(F, {Word::fromInt(W), Word::fromInt(B),
                       Word::fromInt(5), Word::fromFloat(1.25)});
    // Normalize -0.0 to +0.0: floating zero/copy propagation replaces
    // x * 0.0 with a clear, which loses the sign of zero. This is
    // inherent to the paper's optimization (its annotations are
    // "potentially unsafe" assertions); everything else must match
    // bit-for-bit.
    auto Norm = [](Word W2) {
      return W2.Bits == 0x8000000000000000ull ? uint64_t(0) : W2.Bits;
    };
    std::vector<uint64_t> Out = {Norm(R)};
    for (int I = 0; I != 8; ++I)
      Out.push_back(Norm(M.memory()[B + I]));
    return Out;
  };

  auto SE = Ctx.buildStatic();
  std::vector<uint64_t> Ref = Run(*SE);
  for (unsigned T = 0; T <= OptFlags::NumToggles; ++T) {
    OptFlags Fl;
    if (T > 0)
      Fl.toggle(T - 1) = false;
    auto DE = Ctx.buildDynamic(Fl);
    EXPECT_EQ(Run(*DE), Ref) << "config " << T << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(FloatPrograms, FloatFuzz,
                         ::testing::Range(0, 60));

//===----------------------------------------------------------------------===//
// Re-entry property: repeated invocations through the cache agree with a
// fresh static run every time, for several promoted values.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Speculation matrix: the same generated programs, with annotations
// stripped and re-discovered online. Whatever the promotion lifecycle
// does (profile, promote, guard-hit, guard-fail, decline), every call
// must agree with the static build bit-for-bit, and so must memory.
//===----------------------------------------------------------------------===//

class SpeculationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SpeculationFuzz, SpeculativeLifecycleStaysBitIdentical) {
  uint64_t Seed = 0x5bec + static_cast<uint64_t>(GetParam()) * 6121;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors))
      << Src << "\n" << (Errors.empty() ? "" : Errors[0]);

  auto StaticE = Ctx.buildStatic();
  auto SpecOn = Ctx.buildSpeculative();
  speculate::SpeculationPolicy Off;
  Off.Enabled = false;
  auto SpecOff = Ctx.buildSpeculative(Off);

  // Identical memory images in all three machines.
  DeterministicRNG In(Seed ^ 0x77);
  std::vector<core::Executable *> Es = {StaticE.get(), SpecOn.get(),
                                        SpecOff.get()};
  int64_t A = 0, B = 0;
  for (core::Executable *E : Es) {
    A = E->Machine->allocMemory(16);
    B = E->Machine->allocMemory(16);
  }
  for (int I = 0; I != 16; ++I) {
    int64_t AV = static_cast<int64_t>(In.nextBelow(100)) - 50;
    int64_t BV = static_cast<int64_t>(In.nextBelow(1000)) - 500;
    for (core::Executable *E : Es) {
      E->Machine->memory()[A + I] = Word::fromInt(AV);
      E->Machine->memory()[B + I] = Word::fromInt(BV);
    }
  }

  const int64_t N = 1 + static_cast<int64_t>(In.nextBelow(6));
  int F = StaticE->findFunction("f");
  ASSERT_GE(F, 0);

  // Enough calls to cross the promotion threshold and exercise the
  // guarded steady state; x rotates through a few values so some seeds
  // promote it (dominant), some exclude it, and some fail its guard.
  speculate::SpeculationPolicy Defaults;
  const int Calls = static_cast<int>(Defaults.HotCalls) + 8;
  for (int C = 0; C != Calls; ++C) {
    int64_t X = (C * C) % 3;
    int64_t Y = static_cast<int64_t>(In.nextBelow(100)) - 50;
    std::vector<Word> Args = {Word::fromInt(A), Word::fromInt(B),
                              Word::fromInt(N), Word::fromInt(X),
                              Word::fromInt(Y)};
    Word RS = StaticE->Machine->run(static_cast<uint32_t>(F), Args);
    Word ROn = SpecOn->Machine->run(static_cast<uint32_t>(F), Args);
    Word ROff = SpecOff->Machine->run(static_cast<uint32_t>(F), Args);
    ASSERT_EQ(ROn.Bits, RS.Bits)
        << "speculation-on diverged at call " << C << " seed " << Seed
        << "\n" << Src;
    ASSERT_EQ(ROff.Bits, RS.Bits)
        << "speculation-off diverged at call " << C << " seed " << Seed
        << "\n" << Src;
  }
  for (int I = 0; I != 16; ++I) {
    EXPECT_EQ(SpecOn->Machine->memory()[B + I].Bits,
              StaticE->Machine->memory()[B + I].Bits)
        << "memory word " << I << " seed " << Seed << "\n" << Src;
    EXPECT_EQ(SpecOff->Machine->memory()[B + I].Bits,
              StaticE->Machine->memory()[B + I].Bits)
        << "memory word " << I << " seed " << Seed;
  }
  // The disabled policy must never have speculated at all.
  EXPECT_EQ(SpecOff->Spec->stats().CallsObserved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Programs, SpeculationFuzz,
                         ::testing::Range(0, 60));

TEST(FuzzReentry, ManyPromotedValuesThroughCacheAll) {
  ProgramGen Gen(0x5eed);
  std::string Src = "int f(int* a, int* b, int n, int x, int y) {\n"
                    "  int i;\n"
                    "  make_static(a, n, i : cache_all);\n"
                    "  int s0 = 0;\n"
                    "  int s1 = x;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    s0 = s0 + a@[i] * b[i];\n"
                    "    s1 = s1 ^ (s0 >> (i & 7));\n"
                    "  }\n"
                    "  return s0 + s1;\n"
                    "}\n";
  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors));

  auto StaticE = Ctx.buildStatic();
  auto DynE = Ctx.buildDynamic();
  vm::VM &SM = *StaticE->Machine;
  vm::VM &DM = *DynE->Machine;
  int64_t A1 = SM.allocMemory(16), B1 = SM.allocMemory(16);
  int64_t A2 = DM.allocMemory(16), B2 = DM.allocMemory(16);
  ASSERT_EQ(A1, A2);
  ASSERT_EQ(B1, B2);
  DeterministicRNG RNG(0x1234);
  for (int I = 0; I != 16; ++I) {
    int64_t AV = static_cast<int64_t>(RNG.nextBelow(10));
    int64_t BV = static_cast<int64_t>(RNG.nextBelow(100)) - 50;
    SM.memory()[A1 + I] = Word::fromInt(AV);
    DM.memory()[A1 + I] = Word::fromInt(AV);
    SM.memory()[B1 + I] = Word::fromInt(BV);
    DM.memory()[B1 + I] = Word::fromInt(BV);
  }
  int F = StaticE->findFunction("f");
  // Cycle through trip counts; the cache accumulates one version each.
  for (int Round = 0; Round != 3; ++Round) {
    for (int64_t N = 0; N <= 8; ++N) {
      std::vector<Word> Args = {Word::fromInt(A1), Word::fromInt(B1),
                                Word::fromInt(N), Word::fromInt(Round),
                                Word::fromInt(7 - N)};
      EXPECT_EQ(DM.run(F, Args).asInt(), SM.run(F, Args).asInt())
          << "n=" << N << " round=" << Round;
    }
  }
  // 9 distinct trip counts -> 9 specializations, reused across rounds.
  EXPECT_EQ(DynE->RT->stats(0).SpecializationRuns, 9u);
}

//===----------------------------------------------------------------------===//
// Tiering axis: random programs through the tiered SpecServer across
// threshold scripts and engines. Tiering moves specialization
// in time, so every call — cold, warm, hot-with-compile-in-flight, or
// specialized — must stay bit-identical to the static baseline.
//===----------------------------------------------------------------------===//

class TierFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TierFuzz, TieredExecutionStaysBitIdentical) {
  uint64_t Seed = 0x71e4 + static_cast<uint64_t>(GetParam()) * 6151;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors))
      << Src << "\n" << (Errors.empty() ? "" : Errors[0]);

  DeterministicRNG In(Seed ^ 0x7ead);
  std::vector<int64_t> AVals, BVals;
  for (int I = 0; I != 16; ++I) {
    AVals.push_back(static_cast<int64_t>(In.nextBelow(10)));
    BVals.push_back(static_cast<int64_t>(In.nextBelow(1000)) - 500);
  }
  int64_t X = static_cast<int64_t>(In.nextBelow(1000)) - 500;
  int64_t Y = static_cast<int64_t>(In.nextBelow(1000)) - 500;

  // One config per axis value: threshold scripts (born-hot sync, staged
  // sync, staged async), both engines.
  struct TierCfg {
    uint32_t Warm, Hot;
    bool Sync;
    vm::VM::EngineKind Engine;
  };
  const TierCfg Axis[] = {
      {0, 0, true, vm::VM::EngineKind::Predecoded},
      {1, 3, true, vm::VM::EngineKind::Legacy},
      {1, 2, false, vm::VM::EngineKind::Predecoded},
      {2, 5, false, vm::VM::EngineKind::Legacy},
  };

  // The memory image must be identical in every VM — including the
  // server's specialization VM, whose memory the static (a@) loads read
  // at specialize time.
  int64_t ABase = -1, BBase = -1;
  auto Image = [&](vm::VM &M) {
    int64_t A = M.allocMemory(16), B = M.allocMemory(16);
    ABase = A; // deterministic allocator: same base in every fresh VM
    BBase = B;
    for (int I = 0; I != 16; ++I) {
      M.memory()[A + I] = Word::fromInt(AVals[I]);
      M.memory()[B + I] = Word::fromInt(BVals[I]);
    }
  };
  auto FillMem = [&](vm::VM &M) {
    for (int I = 0; I != 16; ++I) {
      M.memory()[ABase + I] = Word::fromInt(AVals[I]);
      M.memory()[BBase + I] = Word::fromInt(BVals[I]);
    }
  };
  // Key-varying sequences are only a valid parity target for the fully
  // key-checked policies: cache_one_unchecked serves the resident entry
  // for ANY key (the documented unsafety), and cache_indexed's non-index
  // key words are unchecked invariants — under those, *which* chain is
  // resident depends on promotion timing, so results legitimately differ
  // from static. For those policies a constant key still drives every
  // tier transition (cold -> warm -> hot -> hit) and parity holds no
  // matter when the install lands.
  bool Checked = Src.find("cache_all") != std::string::npos ||
                 (Src.find("cache_one") != std::string::npos &&
                  Src.find("cache_one_unchecked") == std::string::npos);
  std::vector<int64_t> Trips;
  if (Checked)
    for (int Round = 0; Round != 2; ++Round)
      for (int64_t N = 1; N <= 5; ++N)
        Trips.push_back(N);
  else
    Trips.assign(10, 3);

  auto CallSeq = [&](vm::VM &M, int F) {
    std::vector<int64_t> R;
    for (int64_t N : Trips) {
      FillMem(M); // reset: bodies may write b[]
      R.push_back(M.run(static_cast<uint32_t>(F),
                        {Word::fromInt(ABase), Word::fromInt(BBase),
                         Word::fromInt(N), Word::fromInt(X),
                         Word::fromInt(Y)})
                      .asInt());
      for (int I = 0; I != 16; ++I)
        R.push_back(static_cast<int64_t>(M.memory()[BBase + I].Bits));
    }
    return R;
  };

  // Static reference: the same call sequence (ten calls, so staged
  // configs reach every tier) on the static machine.
  auto StaticE = Ctx.buildStatic();
  vm::VM &SM = *StaticE->Machine;
  Image(SM);
  int64_t SA = ABase, SB = BBase;
  int SF = StaticE->findFunction("f");
  ASSERT_GE(SF, 0);
  std::vector<int64_t> Ref = CallSeq(SM, SF);

  for (size_t C = 0; C != sizeof(Axis) / sizeof(Axis[0]); ++C) {
    const TierCfg &A = Axis[C];
    OptFlags Fl;
    Fl.Tier.WarmThreshold = A.Warm;
    Fl.Tier.HotThreshold = A.Hot;
    Fl.Tier.SyncInstall = A.Sync;
    server::ServerConfig Cfg;
    Cfg.NumWorkers = 2;
    Cfg.MemoryImage = Image;
    auto Server = Ctx.buildTiered(Fl, std::move(Cfg));
    std::unique_ptr<vm::VM> Client = Server->makeClientVM();
    Client->Engine = A.Engine;
    ASSERT_EQ(ABase, SA);
    ASSERT_EQ(BBase, SB);
    int F = Server->findFunction("f");
    std::vector<int64_t> Got = CallSeq(*Client, F);
    EXPECT_EQ(Got, Ref) << "tier config " << C << " seed " << Seed << "\n"
                        << Src;
    Server->drain();
    server::ServerStatsSnapshot S = Server->stats();
    EXPECT_TRUE(S.TierEnabled);
    EXPECT_EQ(S.FallbacksInFlight + S.FallbacksFailed +
                  S.FallbacksNotRequested,
              S.Fallbacks)
        << "tier config " << C << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, TierFuzz, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Tenant axis: random programs replayed by several tenants of one
// multi-tenant server versus a dedicated single-tenant server. The
// multi-tenant contract is total transparency: every tenant's results,
// simulated machine counters, and server-side ledger must be
// bit-identical to the dedicated server's, no matter how many chains the
// store deduplicated away underneath.
//===----------------------------------------------------------------------===//

class TenantFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TenantFuzz, TenantsStayBitIdenticalToDedicatedServer) {
  uint64_t Seed = 0x7e4a + static_cast<uint64_t>(GetParam()) * 9173;
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  ASSERT_TRUE(Ctx.compile(Src, Errors))
      << Src << "\n" << (Errors.empty() ? "" : Errors[0]);

  DeterministicRNG In(Seed ^ 0x7e7a);
  std::vector<int64_t> AVals, BVals;
  for (int I = 0; I != 16; ++I) {
    AVals.push_back(static_cast<int64_t>(In.nextBelow(10)));
    BVals.push_back(static_cast<int64_t>(In.nextBelow(1000)) - 500);
  }
  int64_t X = static_cast<int64_t>(In.nextBelow(1000)) - 500;
  int64_t Y = static_cast<int64_t>(In.nextBelow(1000)) - 500;

  int64_t ABase = -1, BBase = -1;
  auto Image = [&](vm::VM &M) {
    int64_t A = M.allocMemory(16), B = M.allocMemory(16);
    ABase = A;
    BBase = B;
    for (int I = 0; I != 16; ++I) {
      M.memory()[A + I] = Word::fromInt(AVals[I]);
      M.memory()[B + I] = Word::fromInt(BVals[I]);
    }
  };
  auto FillMem = [&](vm::VM &M) {
    for (int I = 0; I != 16; ++I) {
      M.memory()[ABase + I] = Word::fromInt(AVals[I]);
      M.memory()[BBase + I] = Word::fromInt(BVals[I]);
    }
  };
  // Unlike the tiered axis, unchecked policies are fine here: both
  // servers replay the identical sequential call order, so the resident
  // chain evolves identically. Vary keys for checked policies anyway.
  bool Checked = Src.find("cache_all") != std::string::npos ||
                 (Src.find("cache_one") != std::string::npos &&
                  Src.find("cache_one_unchecked") == std::string::npos);
  std::vector<int64_t> Trips;
  if (Checked)
    for (int Round = 0; Round != 2; ++Round)
      for (int64_t N = 1; N <= 5; ++N)
        Trips.push_back(N);
  else
    Trips.assign(8, 3);

  auto CallSeq = [&](vm::VM &M, int F) {
    std::vector<int64_t> R;
    for (int64_t N : Trips) {
      FillMem(M); // reset: bodies may write b[]
      R.push_back(M.run(static_cast<uint32_t>(F),
                        {Word::fromInt(ABase), Word::fromInt(BBase),
                         Word::fromInt(N), Word::fromInt(X),
                         Word::fromInt(Y)})
                      .asInt());
      for (int I = 0; I != 16; ++I)
        R.push_back(static_cast<int64_t>(M.memory()[BBase + I].Bits));
    }
    return R;
  };

  // Dedicated single-tenant reference over the same module.
  server::ServerConfig RefCfg;
  RefCfg.NumWorkers = 1;
  RefCfg.MemoryImage = Image;
  auto Ref = Ctx.buildServer(OptFlags(), std::move(RefCfg));
  std::unique_ptr<vm::VM> RefVM = Ref->makeClientVM();
  int RF = Ref->findFunction("f");
  ASSERT_GE(RF, 0);
  std::vector<int64_t> Want = CallSeq(*RefVM, RF);
  server::ServerStatsSnapshot RefStats = Ref->stats();

  const uint32_t NumTenants = 2 + static_cast<uint32_t>(GetParam() % 2);
  server::ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.MemoryImage = Image;
  auto Server = Ctx.buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  uint64_t TenantSpecRuns = 0;
  for (uint32_t T = 1; T <= NumTenants; ++T) {
    std::unique_ptr<vm::VM> Client = Server->makeClientVM(T);
    std::vector<int64_t> Got = CallSeq(*Client, F);
    EXPECT_EQ(Got, Want) << "tenant " << T << " seed " << Seed << "\n" << Src;
    EXPECT_EQ(Client->execCycles(), RefVM->execCycles())
        << "tenant " << T << " seed " << Seed;
    EXPECT_EQ(Client->dynCompCycles(), RefVM->dynCompCycles())
        << "tenant " << T << " seed " << Seed;
    EXPECT_EQ(Client->icache().hits(), RefVM->icache().hits())
        << "tenant " << T << " seed " << Seed;
    EXPECT_EQ(Client->icache().misses(), RefVM->icache().misses())
        << "tenant " << T << " seed " << Seed;
    server::ServerStatsSnapshot TS = Server->tenantStats(T);
    EXPECT_EQ(TS.Dispatches, RefStats.Dispatches) << "tenant " << T;
    EXPECT_EQ(TS.CacheHits, RefStats.CacheHits) << "tenant " << T;
    EXPECT_EQ(TS.CacheMisses, RefStats.CacheMisses) << "tenant " << T;
    EXPECT_EQ(TS.SpecRuns, RefStats.SpecRuns) << "tenant " << T;
    EXPECT_EQ(TS.ChainsCreated, RefStats.ChainsCreated) << "tenant " << T;
    EXPECT_EQ(TS.Evictions, RefStats.Evictions) << "tenant " << T;
    TenantSpecRuns += TS.SpecRuns;
  }
  // Two-ledger identity: every tenant-view compile was either a real
  // generating-extension run or a store adoption.
  server::ServerStatsSnapshot S = Server->stats();
  EXPECT_EQ(TenantSpecRuns, S.SpecRuns + S.DedupHits) << "seed " << Seed;
  EXPECT_EQ(S.Tenants, NumTenants);
}

INSTANTIATE_TEST_SUITE_P(Programs, TenantFuzz, ::testing::Range(0, 25));

} // namespace
