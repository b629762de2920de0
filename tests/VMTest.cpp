//===- tests/VMTest.cpp - machine-model unit tests --------------------------------===//

#include "ir/ConstEval.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <unistd.h>

using namespace dyc;
using namespace dyc::vm;

namespace {

/// Builds a one-function program from raw instructions.
struct MiniProgram {
  Program P;
  uint32_t Func;

  MiniProgram(std::vector<Instr> Code, uint32_t NumRegs) {
    CodeObject CO;
    CO.Code = std::move(Code);
    CO.NumRegs = NumRegs;
    CO.Name = "test";
    Func = P.addFunction(std::move(CO));
  }
};

TEST(VMExec, Arithmetic) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 20},
                  {Op::ConstI, 1, 0, 0, 22},
                  {Op::Add, 2, 0, 1},
                  {Op::Ret, 2}},
                 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 42);
}

TEST(VMExec, FloatOpsAndConversions) {
  MiniProgram MP({{Op::ConstF, 0, 0, 0,
                   (int64_t)Word::fromFloat(2.5).Bits},
                  {Op::ConstI, 1, 0, 0, 3},
                  {Op::IToF, 2, 1},
                  {Op::FMul, 3, 0, 2},
                  {Op::FToI, 4, 3},
                  {Op::Ret, 4}},
                 5);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 7); // (int)(2.5*3) == 7
}

TEST(VMExec, ImmediateForms) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 100},
                  {Op::AddI, 1, 0, 0, -58},
                  {Op::ShlI, 2, 1, 0, 2},
                  {Op::RemI, 3, 2, 0, 7},
                  {Op::Ret, 3}},
                 4);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), ((100 - 58) << 2) % 7);
}

TEST(VMExec, BranchesAndLoop) {
  // sum 0..9 with a backward branch
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 0},       // i
                  {Op::ConstI, 1, 0, 0, 0},       // sum
                  {Op::CmpLtI, 2, 0, 0, 10},      // 2: i < 10
                  {Op::CondBr, 2, 4, 7},          // 3
                  {Op::Add, 1, 1, 0},             // 4
                  {Op::AddI, 0, 0, 0, 1},         // 5
                  {Op::Br, 0, 2},                 // 6
                  {Op::Ret, 1}},                  // 7
                 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 45);
}

TEST(VMExec, MemoryAndCalls) {
  Program P;
  // callee: arg0 + mem[arg1]
  CodeObject Callee;
  Callee.Name = "callee";
  Callee.NumRegs = 3;
  Callee.Code = {{Op::Load, 2, 1, 0, 0}, {Op::Add, 2, 0, 2}, {Op::Ret, 2}};
  uint32_t CalleeIdx = P.addFunction(std::move(Callee));

  CodeObject Main;
  Main.Name = "main";
  Main.NumRegs = 4;
  Main.Code = {{Op::ConstI, 0, 0, 0, 5},
               {Op::ConstI, 1, 0, 0, 64}, // address
               {Op::Call, 2, 0, 2, (int64_t)CalleeIdx},
               {Op::Ret, 2}};
  uint32_t MainIdx = P.addFunction(std::move(Main));

  VM M(P);
  M.memory()[64] = Word::fromInt(37);
  EXPECT_EQ(M.run(MainIdx, {}).asInt(), 42);
  EXPECT_EQ(M.functionStats(CalleeIdx).Calls, 1u);
  EXPECT_GT(M.functionStats(CalleeIdx).InclusiveCycles, 0u);
}

TEST(VMExec, ExternalCall) {
  Program P;
  P.Externals.addStandardMath();
  int Cos = P.Externals.find("cos");
  ASSERT_GE(Cos, 0);
  CodeObject CO;
  CO.Name = "f";
  CO.NumRegs = 2;
  CO.Code = {{Op::ConstF, 0, 0, 0, (int64_t)Word::fromFloat(0.0).Bits},
             {Op::CallExt, 1, 0, 1, Cos},
             {Op::Ret, 1}};
  uint32_t F = P.addFunction(std::move(CO));
  VM M(P);
  EXPECT_DOUBLE_EQ(M.run(F, {}).asFloat(), 1.0);
}

TEST(VMExec, CycleAccounting) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 2},
                  {Op::Mul, 1, 0, 0},
                  {Op::Ret, 1}},
                 2);
  ICacheConfig NoIC;
  NoIC.Enabled = false; // isolate pure instruction costs
  VM M(MP.P, CostModel(), NoIC);
  CostModel CM;
  M.run(MP.Func, {});
  // consti(1) + mul(8) + ret(5) = 14
  EXPECT_EQ(M.execCycles(), CM.IntAlu + CM.IntMul + CM.RetCost);
  EXPECT_EQ(M.dynCompCycles(), 0u);
  uint64_t Mark = M.execCycles();
  M.chargeExec(10);
  M.reattributeExecToDynComp(Mark);
  EXPECT_EQ(M.execCycles(), Mark);
  EXPECT_EQ(M.dynCompCycles(), 10u);
}

TEST(VMExec, ArgumentsArriveInRegisters) {
  MiniProgram MP({{Op::Sub, 2, 0, 1}, {Op::Ret, 2}}, 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {Word::fromInt(50), Word::fromInt(8)}).asInt(),
            42);
}

TEST(CostModelTest, Alpha21164Properties) {
  CostModel CM;
  // FP move costs the same as FP multiply (section 2.2.7).
  EXPECT_EQ(CM.baseCostOf({Op::FMov, 0, 1}),
            CM.baseCostOf({Op::FMul, 0, 1, 2}));
  // Unchecked dispatch is far cheaper than a hashed one (section 4.4.3).
  EXPECT_LT(CM.DispatchUnchecked, CM.hashedDispatchCost(2, 1));
  EXPECT_GE(CM.hashedDispatchCost(2, 1), 75u);
  EXPECT_LE(CM.hashedDispatchCost(2, 1), 105u);
  // Immediate division still costs a real divide; power-of-two divisors
  // are strength-reduced into exact shift sequences by the code
  // generators instead of by the cost model.
  EXPECT_EQ(CM.baseCostOf({Op::DivI, 0, 1, 0, 8}),
            CM.baseCostOf({Op::Div, 0, 1, 2}));
  // Generated code pays the no-scheduling surcharge.
  EXPECT_GT(CM.costOf({Op::Add, 0, 1, 2}, true),
            CM.costOf({Op::Add, 0, 1, 2}, false));
}

TEST(ICacheTest, DirectMappedHitsAndMisses) {
  ICacheConfig Cfg;
  Cfg.SizeBytes = 256;
  Cfg.BlockBytes = 32;
  Cfg.Assoc = 1; // 8 sets
  ICache C(Cfg);
  EXPECT_FALSE(C.access(0));   // cold miss
  EXPECT_TRUE(C.access(4));    // same block
  EXPECT_TRUE(C.access(28));   // same block
  EXPECT_FALSE(C.access(256)); // same set, different tag -> evict
  EXPECT_FALSE(C.access(0));   // conflict miss
  EXPECT_EQ(C.misses(), 3u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(ICacheTest, AssociativityAvoidsConflicts) {
  ICacheConfig Cfg;
  Cfg.SizeBytes = 256;
  Cfg.BlockBytes = 32;
  Cfg.Assoc = 2; // 4 sets, 2 ways
  ICache C(Cfg);
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(128)); // same set, second way
  EXPECT_TRUE(C.access(0));    // both resident
  EXPECT_TRUE(C.access(128));
  EXPECT_FALSE(C.access(256)); // evicts LRU (block 0)
  EXPECT_FALSE(C.access(0));   // refill evicts block 4 (now the LRU way)
  EXPECT_TRUE(C.access(256));  // most recently used way survived
}

TEST(ICacheTest, FlushInvalidatesEverything) {
  ICache C;
  C.access(0);
  C.access(0);
  EXPECT_EQ(C.hits(), 1u);
  C.flush();
  EXPECT_FALSE(C.access(0));
}

TEST(ICacheTest, WorkingSetLargerThanCacheThrashes) {
  ICacheConfig Cfg; // 8KB direct-mapped
  ICache C(Cfg);
  // Loop over a 16KB footprint twice: every access misses.
  for (int Round = 0; Round != 2; ++Round)
    for (uint64_t A = 0; A < 16384; A += 32)
      C.access(A);
  EXPECT_EQ(C.hits(), 0u);
}

// chargeBlock charges a block's line segments in one call; per-fetch
// access() is its oracle. Random segment lists over a footprint four
// times the cache (conflicts, self-eviction within a block, associative
// LRU choices), with flush() and invalidateRange() applied to both caches
// between blocks.
TEST(ICacheTest, ChargeBlockMatchesPerFetchAccess) {
  auto geometry = [](uint32_t Size, uint32_t Line, uint32_t Assoc,
                     bool Enabled) {
    ICacheConfig Cfg;
    Cfg.SizeBytes = Size;
    Cfg.BlockBytes = Line;
    Cfg.Assoc = Assoc;
    Cfg.Enabled = Enabled;
    return Cfg;
  };
  const ICacheConfig Geometries[] = {
      geometry(8192, 32, 1, true), geometry(1024, 32, 1, true),
      geometry(4096, 32, 2, true), geometry(8192, 64, 4, true),
      geometry(256, 32, 8, true),  geometry(8192, 32, 1, false),
  };
  std::mt19937_64 Rng(21);
  for (const ICacheConfig &Cfg : Geometries) {
    SCOPED_TRACE(::testing::Message()
                 << Cfg.SizeBytes << " B, " << Cfg.BlockBytes << " B lines, "
                 << Cfg.Assoc << "-way" << (Cfg.Enabled ? "" : ", disabled"));
    ICache Blocks(Cfg), Fetches(Cfg);
    const uint64_t FootprintLines = 4ull * Cfg.SizeBytes / Cfg.BlockBytes;
    std::vector<DecodedLineSeg> Segs;
    for (int Block = 0; Block != 2000; ++Block) {
      Segs.clear();
      uint32_t Instrs = 0;
      uint32_t ExpectMissed = 0;
      size_t NumSegs = 1 + Rng() % 40;
      for (size_t S = 0; S != NumSegs; ++S) {
        uint64_t Addr = (Rng() % FootprintLines) * Cfg.BlockBytes +
                        Rng() % Cfg.BlockBytes;
        DecodedLineSeg Seg = lineSegOf(Cfg, Addr);
        Seg.Count = 1 + static_cast<uint32_t>(Rng() % (Cfg.BlockBytes / 4));
        Segs.push_back(Seg);
        Instrs += Seg.Count;
        for (uint32_t F = 0; F != Seg.Count; ++F)
          if (!Fetches.access(Addr) && F == 0)
            ++ExpectMissed;
      }
      EXPECT_EQ(Blocks.chargeBlock(Segs.data(), Segs.data() + Segs.size(),
                                   Instrs),
                ExpectMissed)
          << "block " << Block;
      ASSERT_EQ(Blocks.hits(), Fetches.hits()) << "block " << Block;
      ASSERT_EQ(Blocks.misses(), Fetches.misses()) << "block " << Block;
      switch (Rng() % 16) {
      case 0:
        Blocks.flush();
        Fetches.flush();
        break;
      case 1: {
        uint64_t Addr = Rng() % (FootprintLines * Cfg.BlockBytes);
        uint64_t Bytes = Rng() % (2ull * Cfg.SizeBytes);
        Blocks.invalidateRange(Addr, Bytes);
        Fetches.invalidateRange(Addr, Bytes);
        break;
      }
      default:
        break;
      }
    }
    if (Cfg.Enabled)
      EXPECT_GT(Fetches.misses(), 0u);
    else
      EXPECT_EQ(Fetches.misses(), 0u);
    EXPECT_GT(Fetches.hits(), 0u);
  }
}

TEST(ProgramTest, AddressAllocationDisjoint) {
  Program P;
  uint64_t A = P.allocCodeAddr(1000);
  uint64_t B = P.allocCodeAddr(1000);
  EXPECT_GE(B, A + 1000);
}

TEST(VMExec, DifferentialAgainstConstEval) {
  // Property: for every pure operation, its register form, its immediate
  // form and (for compares) the fused compare-and-branch handlers produce
  // exactly what the shared evaluator (used by the constant folder and the
  // specializer) computes, in both engines. This is the consistency that
  // makes compile-time folding sound.
  struct OpPair {
    ir::Opcode IROp;
    Op RegOp;
    Op ImmOp; ///< Op::Halt: no immediate form
    bool Unary;
    bool FloatOperands;
    bool Compare;
  };
  const OpPair Pairs[] = {
      {ir::Opcode::Add, Op::Add, Op::AddI, false, false, false},
      {ir::Opcode::Sub, Op::Sub, Op::SubI, false, false, false},
      {ir::Opcode::Mul, Op::Mul, Op::MulI, false, false, false},
      {ir::Opcode::Div, Op::Div, Op::DivI, false, false, false},
      {ir::Opcode::Rem, Op::Rem, Op::RemI, false, false, false},
      {ir::Opcode::And, Op::And, Op::AndI, false, false, false},
      {ir::Opcode::Or, Op::Or, Op::OrI, false, false, false},
      {ir::Opcode::Xor, Op::Xor, Op::XorI, false, false, false},
      {ir::Opcode::Shl, Op::Shl, Op::ShlI, false, false, false},
      {ir::Opcode::Shr, Op::Shr, Op::ShrI, false, false, false},
      {ir::Opcode::Neg, Op::Neg, Op::Halt, true, false, false},
      {ir::Opcode::FAdd, Op::FAdd, Op::FAddI, false, true, false},
      {ir::Opcode::FSub, Op::FSub, Op::FSubI, false, true, false},
      {ir::Opcode::FMul, Op::FMul, Op::FMulI, false, true, false},
      {ir::Opcode::FDiv, Op::FDiv, Op::FDivI, false, true, false},
      {ir::Opcode::FNeg, Op::FNeg, Op::Halt, true, true, false},
      {ir::Opcode::CmpEq, Op::CmpEq, Op::CmpEqI, false, false, true},
      {ir::Opcode::CmpNe, Op::CmpNe, Op::CmpNeI, false, false, true},
      {ir::Opcode::CmpLt, Op::CmpLt, Op::CmpLtI, false, false, true},
      {ir::Opcode::CmpLe, Op::CmpLe, Op::CmpLeI, false, false, true},
      {ir::Opcode::CmpGt, Op::CmpGt, Op::CmpGtI, false, false, true},
      {ir::Opcode::CmpGe, Op::CmpGe, Op::CmpGeI, false, false, true},
      {ir::Opcode::FCmpEq, Op::FCmpEq, Op::Halt, false, true, true},
      {ir::Opcode::FCmpNe, Op::FCmpNe, Op::Halt, false, true, true},
      {ir::Opcode::FCmpLt, Op::FCmpLt, Op::Halt, false, true, true},
      {ir::Opcode::FCmpLe, Op::FCmpLe, Op::Halt, false, true, true},
      {ir::Opcode::FCmpGt, Op::FCmpGt, Op::Halt, false, true, true},
      {ir::Opcode::FCmpGe, Op::FCmpGe, Op::Halt, false, true, true},
      {ir::Opcode::IToF, Op::IToF, Op::Halt, true, false, false},
      {ir::Opcode::FToI, Op::FToI, Op::Halt, true, true, false},
  };
  size_t ImmForms = 0;
  for (const OpPair &P : Pairs)
    ImmForms += P.ImmOp != Op::Halt;
  EXPECT_EQ(sizeof(Pairs) / sizeof(Pairs[0]), 30u);
  EXPECT_EQ(ImmForms, 20u);

  // Operands: random values plus the edges where guest arithmetic wraps
  // (INT64_MAX + 1, -INT64_MIN, INT64_MIN / -1) or a host float-to-int
  // cast would be undefined (NaN, infinities, out of range).
  DeterministicRNG RNG(0xd1ff);
  std::vector<Word> IntVals, FloatVals;
  for (int64_t V : {INT64_MIN, INT64_MIN + 1, int64_t(-1), int64_t(0),
                    int64_t(1), int64_t(63), int64_t(64), INT64_MAX})
    IntVals.push_back(Word::fromInt(V));
  for (double V : {0.0, -0.0, 1.5, -2.5, HUGE_VAL, -HUGE_VAL, std::nan(""),
                   1e20, -1e20, -0x1p63, 0x1p63})
    FloatVals.push_back(Word::fromFloat(V));
  for (int Trial = 0; Trial != 12; ++Trial) {
    IntVals.push_back(
        Word::fromInt(static_cast<int64_t>(RNG.nextBelow(2000)) - 1000));
    FloatVals.push_back(Word::fromFloat(RNG.nextDouble() * 200 - 100));
  }

  const VM::EngineKind Engines[] = {VM::EngineKind::Legacy,
                                    VM::EngineKind::Predecoded};
  auto Run = [](std::vector<Instr> Code, VM::EngineKind E,
                const std::vector<Word> &Args) {
    MiniProgram MP(std::move(Code), 4);
    VM M(MP.P);
    M.Engine = E;
    return M.run(MP.Func, Args);
  };
  // A compare feeding a CondBr on its result (fused in the predecoded
  // engine): returns the compare's value plus 10 if the branch was taken,
  // plus 20 if not.
  auto CompareAndBranch = [](Instr Cmp) {
    return std::vector<Instr>{Cmp,
                              {Op::CondBr, 2, 2, 4},
                              {Op::AddI, 3, 2, 0, 10},
                              {Op::Ret, 3},
                              {Op::AddI, 3, 2, 0, 20},
                              {Op::Ret, 3}};
  };
  for (VM::EngineKind E : Engines) {
    const char *EngineName =
        E == VM::EngineKind::Legacy ? "legacy" : "predecoded";
    for (const OpPair &P : Pairs) {
      const std::vector<Word> &Vals = P.FloatOperands ? FloatVals : IntVals;
      for (Word A : Vals) {
        for (Word B : Vals) {
          Word Expected;
          if (!ir::evalPureOp(P.IROp, A, B, Expected))
            continue; // division by zero: a fault, not a value
          std::string What = std::string(ir::opcodeName(P.IROp)) +
                             " A=" + std::to_string(A.Bits) +
                             " B=" + std::to_string(B.Bits) + " " + EngineName;
          Instr Reg = P.Unary ? Instr{P.RegOp, 2, 0} : Instr{P.RegOp, 2, 0, 1};
          EXPECT_EQ(Run({Reg, {Op::Ret, 2}}, E, {A, B}).Bits, Expected.Bits)
              << What;
          Instr Imm{P.ImmOp, 2, 0, 0, static_cast<int64_t>(B.Bits)};
          if (P.ImmOp != Op::Halt) {
            EXPECT_EQ(Run({Imm, {Op::Ret, 2}}, E, {A}).Bits, Expected.Bits)
                << "immediate " << What;
          }
          if (!P.Compare)
            continue;
          int64_t Want = Expected.asInt() + (Expected.asInt() ? 10 : 20);
          EXPECT_EQ(Run(CompareAndBranch(Reg), E, {A, B}).asInt(), Want)
              << "compare-and-branch " << What;
          if (P.ImmOp != Op::Halt) {
            EXPECT_EQ(Run(CompareAndBranch(Imm), E, {A}).asInt(), Want)
                << "immediate compare-and-branch " << What;
          }
        }
        if (P.Unary)
          break; // B is not read
      }
    }
    // The fused ConstI+Add superinstruction.
    for (Word A : IntVals)
      for (Word B : IntVals) {
        Word Expected;
        ASSERT_TRUE(ir::evalPureOp(ir::Opcode::Add, A, B, Expected));
        Word Fused = Run({{Op::ConstI, 1, 0, 0, B.asInt()},
                          {Op::Add, 2, 0, 1},
                          {Op::Ret, 2}},
                         E, {A});
        EXPECT_EQ(Fused.Bits, Expected.Bits)
            << "consti+add A=" << A.asInt() << " B=" << B.asInt() << " "
            << EngineName;
      }
  }
}

TEST(VMMemory, FreshImageReadsZero) {
  MiniProgram MP({{Op::Ret, NoReg}}, 1);
  VM M(MP.P);
  const Memory &Mem = M.memory();
  ASSERT_EQ(Mem.size(), size_t(1) << 20);
  EXPECT_EQ(Mem[0].Bits, 0u);
  EXPECT_EQ(Mem[Mem.size() / 2].Bits, 0u);
  EXPECT_EQ(Mem[Mem.size() - 1].Bits, 0u);
}

TEST(VMMemory, EachVMOwnsItsImage) {
  MiniProgram MP({{Op::LoadAbs, 0, 0, 0, 4096}, {Op::Ret, 0}}, 1);
  VM A(MP.P), B(MP.P);
  A.memory()[4096] = Word::fromInt(7);
  EXPECT_EQ(B.memory()[4096].Bits, 0u);
  EXPECT_EQ(A.run(MP.Func, {}).asInt(), 7);
  EXPECT_EQ(B.run(MP.Func, {}).asInt(), 0);
}

TEST(VMMemory, GrowthKeepsContentsAndZeroFillsTheNewRange) {
  const int64_t Initial = int64_t(1) << 20;
  // Loads the word at the old end of the image, now in range.
  MiniProgram MP({{Op::LoadAbs, 0, 0, 0, Initial}, {Op::Ret, 0}}, 1);
  VM M(MP.P);
  int64_t A = M.allocMemory(4);
  M.memory()[A] = Word::fromInt(11);
  M.memory()[Initial - 1] = Word::fromInt(22);
  int64_t Big = M.allocMemory(Initial); // runs past the end: doubles
  EXPECT_EQ(Big, A + 4);
  const Memory &Mem = M.memory();
  ASSERT_EQ(Mem.size(), size_t(2) << 20);
  EXPECT_EQ(Mem[A].asInt(), 11);
  EXPECT_EQ(Mem[Initial - 1].asInt(), 22);
  EXPECT_EQ(Mem[Initial].Bits, 0u);
  EXPECT_EQ(Mem[Mem.size() / 2 + 12345].Bits, 0u);
  EXPECT_EQ(Mem[Mem.size() - 1].Bits, 0u);
  M.memory()[Initial] = Word::fromInt(33);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 33);
}

TEST(VMMemoryDeathTest, AccessOutsideTheImageIsAMachineError) {
  MiniProgram AtEnd({{Op::LoadAbs, 0, 0, 0, int64_t(1) << 20}, {Op::Ret, 0}},
                    1);
  VM M(AtEnd.P);
  EXPECT_DEATH(M.run(AtEnd.Func, {}),
               "machine error in 'test' at pc 0: memory access out of "
               "range: 1048576");
  MiniProgram Below({{Op::Store, 0, 0, 0, -1}, {Op::Ret, 0}}, 1);
  VM N(Below.P);
  EXPECT_DEATH(N.run(Below.Func, {Word::fromInt(0)}),
               "memory access out of range: -1");
}

/// Resident set size in bytes, read from /proc/self/statm; -1 where that
/// file is unavailable.
long long residentBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return -1;
  long long Pages = 0, Resident = 0;
  int N = std::fscanf(F, "%lld %lld", &Pages, &Resident);
  std::fclose(F);
  return N == 2 ? Resident * sysconf(_SC_PAGESIZE) : -1;
}

TEST(VMMemory, UntouchedPagesCostNothing) {
  // Sixteen 8 MB images with one word written in each: zero-on-demand
  // pages keep that to a few pages per VM. An eagerly zeroed image would
  // make all 128 MB resident.
  long long Before = residentBytes();
  if (Before < 0)
    GTEST_SKIP() << "/proc/self/statm is unavailable";
  MiniProgram MP({{Op::Ret, NoReg}}, 1);
  std::vector<std::unique_ptr<VM>> VMs;
  for (int I = 0; I != 16; ++I) {
    VMs.push_back(std::make_unique<VM>(MP.P));
    VMs.back()->memory()[1000 + I] = Word::fromInt(I + 1);
  }
  long long Grew = residentBytes() - Before;
  EXPECT_LT(Grew, 16LL << 20) << "resident memory grew by " << Grew
                              << " bytes for 16 VMs";
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(VMs[I]->memory()[1000 + I].asInt(), I + 1);
}

/// The instruction set as it stood before the op table described it: one
/// row per opcode, recorded from the hand-written switches. Each row gives
/// the opcode's number and mnemonic, the text, base cost, dynamic-code cost
/// and smallest valid frame of one sample instruction (A = r3, B = r5,
/// C = r7, Imm = 9, or 2.5 where Imm holds a double), and whether the
/// opcode ends a block.
struct PinnedOp {
  Op O;
  unsigned Number;
  const char *Name;
  bool FloatImm;
  const char *Text;
  uint32_t BaseCost;
  uint32_t DynCost;
  bool Terminator;
  uint32_t MinFrame;
};

struct PinnedOpcode {
  ir::Opcode O;
  unsigned Number;
  const char *Name;
  bool Evaluable;
};

TEST(ISAPin, EveryOpcodeMatchesTheRecordedInstructionSet) {
  const PinnedOp Ops[] = {
      {Op::ConstI, 0, "consti", false, "consti r3, 9", 1, 2, false, 4},
      {Op::ConstF, 1, "constf", true, "constf r3, 2.5", 1, 2, false, 4},
      {Op::Mov, 2, "mov", false, "mov r3, r5", 1, 2, false, 6},
      {Op::FMov, 3, "fmov", false, "fmov r3, r5", 4, 6, false, 6},
      {Op::Add, 4, "add", false, "add r3, r5, r7", 1, 2, false, 8},
      {Op::Sub, 5, "sub", false, "sub r3, r5, r7", 1, 2, false, 8},
      {Op::Mul, 6, "mul", false, "mul r3, r5, r7", 8, 10, false, 8},
      {Op::Div, 7, "div", false, "div r3, r5, r7", 40, 42, false, 8},
      {Op::Rem, 8, "rem", false, "rem r3, r5, r7", 40, 42, false, 8},
      {Op::And, 9, "and", false, "and r3, r5, r7", 1, 2, false, 8},
      {Op::Or, 10, "or", false, "or r3, r5, r7", 1, 2, false, 8},
      {Op::Xor, 11, "xor", false, "xor r3, r5, r7", 1, 2, false, 8},
      {Op::Shl, 12, "shl", false, "shl r3, r5, r7", 1, 2, false, 8},
      {Op::Shr, 13, "shr", false, "shr r3, r5, r7", 1, 2, false, 8},
      {Op::Neg, 14, "neg", false, "neg r3, r5", 1, 2, false, 6},
      {Op::AddI, 15, "addi", false, "addi r3, r5, 9", 1, 2, false, 6},
      {Op::SubI, 16, "subi", false, "subi r3, r5, 9", 1, 2, false, 6},
      {Op::MulI, 17, "muli", false, "muli r3, r5, 9", 8, 10, false, 6},
      {Op::DivI, 18, "divi", false, "divi r3, r5, 9", 40, 42, false, 6},
      {Op::RemI, 19, "remi", false, "remi r3, r5, 9", 40, 42, false, 6},
      {Op::AndI, 20, "andi", false, "andi r3, r5, 9", 1, 2, false, 6},
      {Op::OrI, 21, "ori", false, "ori r3, r5, 9", 1, 2, false, 6},
      {Op::XorI, 22, "xori", false, "xori r3, r5, 9", 1, 2, false, 6},
      {Op::ShlI, 23, "shli", false, "shli r3, r5, 9", 1, 2, false, 6},
      {Op::ShrI, 24, "shri", false, "shri r3, r5, 9", 1, 2, false, 6},
      {Op::FAdd, 25, "fadd", false, "fadd r3, r5, r7", 4, 6, false, 8},
      {Op::FSub, 26, "fsub", false, "fsub r3, r5, r7", 4, 6, false, 8},
      {Op::FMul, 27, "fmul", false, "fmul r3, r5, r7", 4, 6, false, 8},
      {Op::FDiv, 28, "fdiv", false, "fdiv r3, r5, r7", 30, 32, false, 8},
      {Op::FNeg, 29, "fneg", false, "fneg r3, r5", 4, 6, false, 6},
      {Op::FAddI, 30, "faddi", true, "faddi r3, r5, 2.5", 4, 6, false, 6},
      {Op::FSubI, 31, "fsubi", true, "fsubi r3, r5, 2.5", 4, 6, false, 6},
      {Op::FMulI, 32, "fmuli", true, "fmuli r3, r5, 2.5", 4, 6, false, 6},
      {Op::FDivI, 33, "fdivi", true, "fdivi r3, r5, 2.5", 30, 32, false, 6},
      {Op::CmpEq, 34, "cmpeq", false, "cmpeq r3, r5, r7", 1, 2, false, 8},
      {Op::CmpNe, 35, "cmpne", false, "cmpne r3, r5, r7", 1, 2, false, 8},
      {Op::CmpLt, 36, "cmplt", false, "cmplt r3, r5, r7", 1, 2, false, 8},
      {Op::CmpLe, 37, "cmple", false, "cmple r3, r5, r7", 1, 2, false, 8},
      {Op::CmpGt, 38, "cmpgt", false, "cmpgt r3, r5, r7", 1, 2, false, 8},
      {Op::CmpGe, 39, "cmpge", false, "cmpge r3, r5, r7", 1, 2, false, 8},
      {Op::CmpEqI, 40, "cmpeqi", false, "cmpeqi r3, r5, 9", 1, 2, false, 6},
      {Op::CmpNeI, 41, "cmpnei", false, "cmpnei r3, r5, 9", 1, 2, false, 6},
      {Op::CmpLtI, 42, "cmplti", false, "cmplti r3, r5, 9", 1, 2, false, 6},
      {Op::CmpLeI, 43, "cmplei", false, "cmplei r3, r5, 9", 1, 2, false, 6},
      {Op::CmpGtI, 44, "cmpgti", false, "cmpgti r3, r5, 9", 1, 2, false, 6},
      {Op::CmpGeI, 45, "cmpgei", false, "cmpgei r3, r5, 9", 1, 2, false, 6},
      {Op::FCmpEq, 46, "fcmpeq", false, "fcmpeq r3, r5, r7", 4, 6, false, 8},
      {Op::FCmpNe, 47, "fcmpne", false, "fcmpne r3, r5, r7", 4, 6, false, 8},
      {Op::FCmpLt, 48, "fcmplt", false, "fcmplt r3, r5, r7", 4, 6, false, 8},
      {Op::FCmpLe, 49, "fcmple", false, "fcmple r3, r5, r7", 4, 6, false, 8},
      {Op::FCmpGt, 50, "fcmpgt", false, "fcmpgt r3, r5, r7", 4, 6, false, 8},
      {Op::FCmpGe, 51, "fcmpge", false, "fcmpge r3, r5, r7", 4, 6, false, 8},
      {Op::IToF, 52, "itof", false, "itof r3, r5", 4, 6, false, 6},
      {Op::FToI, 53, "ftoi", false, "ftoi r3, r5", 4, 6, false, 6},
      {Op::Load, 54, "load", false, "load r3, [r5 + 9]", 2, 3, false, 6},
      {Op::LoadAbs, 55, "loadabs", false, "loadabs r3, [9]", 2, 3, false, 4},
      {Op::Store, 56, "store", false, "store [r5 + 9], r3", 1, 2, false, 6},
      {Op::StoreAbs, 57, "storeabs", false, "storeabs [9], r3", 1, 2, false, 4},
      {Op::Call, 58, "call", false, "call r3, fn9, args r5..+7", 10, 12, false, 12},
      {Op::CallExt, 59, "callext", false, "callext r3, ext9, args r5..+7", 10, 12, false, 12},
      {Op::Br, 60, "br", false, "br @5", 1, 2, true, 0},
      {Op::CondBr, 61, "condbr", false, "condbr r3, @5, @7", 2, 3, true, 4},
      {Op::Ret, 62, "ret", false, "ret r3", 5, 7, true, 4},
      {Op::EnterRegion, 63, "enter_region", false, "enter_region region9", 0, 0, true, 0},
      {Op::Dispatch, 64, "dispatch", false, "dispatch point9", 0, 0, true, 0},
      {Op::ExitRegion, 65, "exit_region", false, "exit_region resume @5", 1, 2, true, 0},
      {Op::Halt, 66, "halt", false, "halt", 0, 0, true, 0},
  };
  ASSERT_EQ(sizeof(Ops) / sizeof(Ops[0]), size_t(NumOps));
  const CostModel CM;
  for (unsigned K = 0; K != NumOps; ++K) {
    const PinnedOp &P = Ops[K];
    SCOPED_TRACE(P.Name);
    EXPECT_EQ(static_cast<unsigned>(P.O), P.Number);
    EXPECT_EQ(P.Number, K);
    EXPECT_STREQ(opName(P.O), P.Name);
    Instr I{P.O, 3, 5, 7,
            P.FloatImm ? static_cast<int64_t>(Word::fromFloat(2.5).Bits) : 9};
    EXPECT_EQ(toString(I), P.Text);
    EXPECT_EQ(CM.baseCostOf(I), P.BaseCost);
    EXPECT_EQ(CM.costOf(I, true), P.DynCost);
    EXPECT_EQ(isTerminatorLike(P.O), P.Terminator);
    EXPECT_TRUE(registersInFrame(I, P.MinFrame));
    if (P.MinFrame > 0) {
      EXPECT_FALSE(registersInFrame(I, P.MinFrame - 1));
    }
  }

  const PinnedOpcode Opcodes[] = {
      {ir::Opcode::ConstI, 0, "consti", false},
      {ir::Opcode::ConstF, 1, "constf", false},
      {ir::Opcode::Mov, 2, "mov", true},
      {ir::Opcode::Add, 3, "add", true},
      {ir::Opcode::Sub, 4, "sub", true},
      {ir::Opcode::Mul, 5, "mul", true},
      {ir::Opcode::Div, 6, "div", true},
      {ir::Opcode::Rem, 7, "rem", true},
      {ir::Opcode::And, 8, "and", true},
      {ir::Opcode::Or, 9, "or", true},
      {ir::Opcode::Xor, 10, "xor", true},
      {ir::Opcode::Shl, 11, "shl", true},
      {ir::Opcode::Shr, 12, "shr", true},
      {ir::Opcode::Neg, 13, "neg", true},
      {ir::Opcode::FAdd, 14, "fadd", true},
      {ir::Opcode::FSub, 15, "fsub", true},
      {ir::Opcode::FMul, 16, "fmul", true},
      {ir::Opcode::FDiv, 17, "fdiv", true},
      {ir::Opcode::FNeg, 18, "fneg", true},
      {ir::Opcode::CmpEq, 19, "cmpeq", true},
      {ir::Opcode::CmpNe, 20, "cmpne", true},
      {ir::Opcode::CmpLt, 21, "cmplt", true},
      {ir::Opcode::CmpLe, 22, "cmple", true},
      {ir::Opcode::CmpGt, 23, "cmpgt", true},
      {ir::Opcode::CmpGe, 24, "cmpge", true},
      {ir::Opcode::FCmpEq, 25, "fcmpeq", true},
      {ir::Opcode::FCmpNe, 26, "fcmpne", true},
      {ir::Opcode::FCmpLt, 27, "fcmplt", true},
      {ir::Opcode::FCmpLe, 28, "fcmple", true},
      {ir::Opcode::FCmpGt, 29, "fcmpgt", true},
      {ir::Opcode::FCmpGe, 30, "fcmpge", true},
      {ir::Opcode::IToF, 31, "itof", true},
      {ir::Opcode::FToI, 32, "ftoi", true},
      {ir::Opcode::Load, 33, "load", false},
      {ir::Opcode::Store, 34, "store", false},
      {ir::Opcode::Call, 35, "call", false},
      {ir::Opcode::CallExt, 36, "callext", false},
      {ir::Opcode::Br, 37, "br", false},
      {ir::Opcode::CondBr, 38, "condbr", false},
      {ir::Opcode::Ret, 39, "ret", false},
      {ir::Opcode::MakeStatic, 40, "make_static", false},
      {ir::Opcode::MakeDynamic, 41, "make_dynamic", false},
  };
  for (const PinnedOpcode &P : Opcodes) {
    SCOPED_TRACE(P.Name);
    EXPECT_EQ(static_cast<unsigned>(P.O), P.Number);
    EXPECT_STREQ(ir::opcodeName(P.O), P.Name);
    EXPECT_EQ(ir::isEvaluableOp(P.O), P.Evaluable);
  }
  EXPECT_EQ(static_cast<unsigned>(ir::Opcode::MakeDynamic) + 1,
            sizeof(Opcodes) / sizeof(Opcodes[0]));
}

TEST(DisassemblerTest, RendersKnownForms) {
  Instr I{Op::AddI, 3, 2, 0, 7};
  EXPECT_EQ(toString(I), "addi r3, r2, 7");
  Instr L{Op::Load, 1, 2, 0, 4};
  EXPECT_EQ(toString(L), "load r1, [r2 + 4]");
  Instr Br{Op::CondBr, 0, 5, 9};
  EXPECT_EQ(toString(Br), "condbr r0, @5, @9");
}

} // namespace
