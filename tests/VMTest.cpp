//===- tests/VMTest.cpp - machine-model unit tests --------------------------------===//

#include "ir/ConstEval.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
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

TEST(ProgramTest, AddressAllocationDisjoint) {
  Program P;
  uint64_t A = P.allocCodeAddr(1000);
  uint64_t B = P.allocCodeAddr(1000);
  EXPECT_GE(B, A + 1000);
}

TEST(VMExec, DifferentialAgainstConstEval) {
  // Property: for every evaluable opcode and random operands, executing
  // the operation on the VM produces exactly what the shared evaluator
  // (used by the constant folder and the specializer) computes. This is
  // the consistency that makes compile-time folding sound.
  struct OpPair {
    ir::Opcode IROp;
    Op VMOp;
    bool Unary;
  };
  const OpPair Pairs[] = {
      {ir::Opcode::Add, Op::Add, false}, {ir::Opcode::Sub, Op::Sub, false},
      {ir::Opcode::Mul, Op::Mul, false}, {ir::Opcode::Div, Op::Div, false},
      {ir::Opcode::Rem, Op::Rem, false}, {ir::Opcode::And, Op::And, false},
      {ir::Opcode::Or, Op::Or, false},   {ir::Opcode::Xor, Op::Xor, false},
      {ir::Opcode::Shl, Op::Shl, false}, {ir::Opcode::Shr, Op::Shr, false},
      {ir::Opcode::Neg, Op::Neg, true},
      {ir::Opcode::FAdd, Op::FAdd, false},
      {ir::Opcode::FSub, Op::FSub, false},
      {ir::Opcode::FMul, Op::FMul, false},
      {ir::Opcode::FDiv, Op::FDiv, false},
      {ir::Opcode::FNeg, Op::FNeg, true},
      {ir::Opcode::CmpLt, Op::CmpLt, false},
      {ir::Opcode::CmpGe, Op::CmpGe, false},
      {ir::Opcode::FCmpLe, Op::FCmpLe, false},
      {ir::Opcode::IToF, Op::IToF, true},
      {ir::Opcode::FToI, Op::FToI, true},
  };
  DeterministicRNG RNG(0xd1ff);
  for (const OpPair &P : Pairs) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      Word A{RNG.next()}, B{RNG.next()};
      bool IsFloat = P.IROp == ir::Opcode::FAdd ||
                     P.IROp == ir::Opcode::FSub ||
                     P.IROp == ir::Opcode::FMul ||
                     P.IROp == ir::Opcode::FDiv ||
                     P.IROp == ir::Opcode::FNeg ||
                     P.IROp == ir::Opcode::FCmpLe ||
                     P.IROp == ir::Opcode::FToI;
      if (IsFloat) {
        A = Word::fromFloat(RNG.nextDouble() * 200 - 100);
        B = Word::fromFloat(RNG.nextDouble() * 200 - 100);
      } else {
        A = Word::fromInt(static_cast<int64_t>(RNG.nextBelow(2000)) - 1000);
        B = Word::fromInt(static_cast<int64_t>(RNG.nextBelow(2000)) - 1000);
      }
      if (P.IROp == ir::Opcode::FToI)
        A = Word::fromFloat(RNG.nextDouble() * 1000 - 500);
      Word Expected;
      if (!ir::evalPureOp(P.IROp, A, B, Expected))
        continue; // division by zero etc: unfoldable by design
      MiniProgram MP({P.Unary ? Instr{P.VMOp, 2, 0}
                              : Instr{P.VMOp, 2, 0, 1},
                      {Op::Ret, 2}},
                     3);
      VM M(MP.P);
      Word Got = M.run(MP.Func, {A, B});
      EXPECT_EQ(Got.Bits, Expected.Bits)
          << ir::opcodeName(P.IROp) << " A=" << A.Bits << " B=" << B.Bits;
    }
  }

  // Integer edge operands, where guest arithmetic wraps (INT64_MAX + 1,
  // -INT64_MIN, INT64_MIN / -1): both engines, the register and immediate
  // forms, and the fused ConstI+Add superinstruction agree with the
  // evaluator bit for bit.
  struct IntOp {
    ir::Opcode IROp;
    Op RegOp;
    Op ImmOp;
  };
  const IntOp IntOps[] = {
      {ir::Opcode::Add, Op::Add, Op::AddI},
      {ir::Opcode::Sub, Op::Sub, Op::SubI},
      {ir::Opcode::Mul, Op::Mul, Op::MulI},
      {ir::Opcode::Div, Op::Div, Op::DivI},
      {ir::Opcode::Rem, Op::Rem, Op::RemI},
      {ir::Opcode::And, Op::And, Op::AndI},
      {ir::Opcode::Or, Op::Or, Op::OrI},
      {ir::Opcode::Xor, Op::Xor, Op::XorI},
      {ir::Opcode::Shl, Op::Shl, Op::ShlI},
      {ir::Opcode::Shr, Op::Shr, Op::ShrI},
      {ir::Opcode::CmpLt, Op::CmpLt, Op::CmpLtI},
      {ir::Opcode::CmpGe, Op::CmpGe, Op::CmpGeI},
  };
  const int64_t Edges[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX};
  const VM::EngineKind Engines[] = {VM::EngineKind::Legacy,
                                    VM::EngineKind::Predecoded};
  auto Run = [](std::vector<Instr> Code, VM::EngineKind E,
                const std::vector<Word> &Args) {
    MiniProgram MP(std::move(Code), 3);
    VM M(MP.P);
    M.Engine = E;
    return M.run(MP.Func, Args);
  };
  for (VM::EngineKind E : Engines) {
    const char *EngineName =
        E == VM::EngineKind::Legacy ? "legacy" : "predecoded";
    for (int64_t AV : Edges) {
      Word A = Word::fromInt(AV), Expected;
      ASSERT_TRUE(ir::evalPureOp(ir::Opcode::Neg, A, Word(), Expected));
      EXPECT_EQ(Run({{Op::Neg, 2, 0}, {Op::Ret, 2}}, E, {A}).Bits,
                Expected.Bits)
          << "neg A=" << AV << " " << EngineName;
      for (int64_t BV : Edges) {
        Word B = Word::fromInt(BV);
        for (const IntOp &P : IntOps) {
          if (!ir::evalPureOp(P.IROp, A, B, Expected))
            continue; // division by zero: a fault, not a value
          EXPECT_EQ(Run({{P.RegOp, 2, 0, 1}, {Op::Ret, 2}}, E, {A, B}).Bits,
                    Expected.Bits)
              << ir::opcodeName(P.IROp) << " A=" << AV << " B=" << BV << " "
              << EngineName;
          EXPECT_EQ(Run({{P.ImmOp, 2, 0, 0, BV}, {Op::Ret, 2}}, E, {A}).Bits,
                    Expected.Bits)
              << ir::opcodeName(P.IROp) << " immediate A=" << AV
              << " B=" << BV << " " << EngineName;
          if (P.RegOp == Op::Add) {
            Word Fused = Run(
                {{Op::ConstI, 1, 0, 0, BV}, {Op::Add, 2, 0, 1}, {Op::Ret, 2}},
                E, {A});
            EXPECT_EQ(Fused.Bits, Expected.Bits)
                << "consti+add A=" << AV << " B=" << BV << " " << EngineName;
          }
        }
      }
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

TEST(DisassemblerTest, RendersKnownForms) {
  Instr I{Op::AddI, 3, 2, 0, 7};
  EXPECT_EQ(toString(I), "addi r3, r2, 7");
  Instr L{Op::Load, 1, 2, 0, 4};
  EXPECT_EQ(toString(L), "load r1, [r2 + 4]");
  Instr Br{Op::CondBr, 0, 5, 9};
  EXPECT_EQ(toString(Br), "condbr r0, @5, @9");
}

} // namespace
