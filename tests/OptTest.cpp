//===- tests/OptTest.cpp - static optimizer unit tests ----------------------------===//

#include "ReferenceSchedule.h"

#include "core/DycContext.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace dyc;
using namespace dyc::ir;

namespace {

ir::Module lower(const std::string &Src) {
  ir::Module M;
  std::vector<std::string> Errors;
  bool OK = frontend::compileMiniC(Src, M, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return M;
}

size_t countOp(const Function &F, Opcode Op) {
  size_t N = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Op)
        ++N;
  return N;
}

TEST(ConstantFold, FoldsArithmeticChains) {
  ir::Module M = lower("int f() { int a = 6; int b = 7; return a * b; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  // The surviving value is the folded 42.
  bool Found42 = false;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Opcode::ConstI && I.Imm == 42)
        Found42 = true;
  EXPECT_TRUE(Found42);
}

TEST(ConstantFold, FoldsBranchesOnConstants) {
  ir::Module M = lower(
      "int f(int x) { if (3 < 2) { return x; } return x + 1; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // The condbr on a constant folds into an unconditional branch.
  for (const BasicBlock &B : F.Blocks)
    if (!B.Instrs.empty() && B.Instrs.back().Op == Opcode::CondBr) {
      std::vector<Reg> Uses;
      B.Instrs.back().appendUses(Uses);
      // Any remaining condbr must depend on the parameter, not constants.
      FAIL() << "constant branch survived optimization";
    }
}

TEST(ConstantFold, DoesNotFoldDivideByZero) {
  ir::Module M = lower("int f() { int a = 1; int b = 0; return a / b; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Div), 1u); // faults at run time, as in C
}

TEST(CopyProp, ForwardsThroughTemps) {
  ir::Module M = lower("int f(int a) { int t = a; int u = t; return u; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // Everything collapses into `ret a`.
  const Instruction &T = F.block(0).terminator();
  ASSERT_EQ(T.Op, Opcode::Ret);
  EXPECT_EQ(T.Src1, 0u);
}

TEST(CopyProp, RespectsAnnotationBarriers) {
  ir::Module M = lower("int f(int a) {\n"
                       "  int t = a;\n"
                       "  make_static(t);\n"
                       "  return t + 1;\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // The use of t after make_static(t) must still read t, not a: replacing
  // it would bypass the promotion.
  Reg AnnotVar = NoReg;
  bool UseIntact = false;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs) {
      if (I.Op == Opcode::MakeStatic)
        AnnotVar = I.AnnotVars[0];
      if (I.Op == Opcode::Add && AnnotVar != NoReg &&
          (I.Src1 == AnnotVar || I.Src2 == AnnotVar))
        UseIntact = true;
    }
  EXPECT_TRUE(UseIntact);
}

TEST(DCE, RemovesDeadPureCode) {
  ir::Module M = lower(
      "int f(int a) { int dead = a * 17; int alsodead = dead + 1; "
      "return a; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
}

TEST(DCE, KeepsSideEffects) {
  ir::Module M = lower("extern double sin(double);\n" // impure by default
                       "void f(double* p, double x) {\n"
                       "  p[0] = x;\n"
                       "  sin(x);\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(countOp(F, Opcode::Store), 1u);
  EXPECT_EQ(countOp(F, Opcode::CallExt), 1u);
}

TEST(DCE, RemovesDeadPureCalls) {
  ir::Module M = lower("pure int sq(int x) { return x * x; }\n"
                       "int f(int a) { sq(a); return a; }");
  Function &F = M.function(M.findFunction("f"));
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(countOp(F, Opcode::Call), 0u);
}

TEST(CoalesceMoves, EliminatesLoweringTemps) {
  ir::Module M = lower("int f(int a, int b) { int s = a + b; return s; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mov), 0u);
}

TEST(SimplifyCFG, ThreadsTrivialJumpChains) {
  ir::Module M = lower("int f(int a) {\n"
                       "  if (a) { } else { }\n"
                       "  if (a) { } else { }\n"
                       "  return a;\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // Both empty diamonds collapse; entry reaches ret without detours.
  analysis::CFG G(F);
  size_t Reachable = G.rpo().size();
  EXPECT_LE(Reachable, 2u);
}

TEST(Optimizer, PreservesSemantics) {
  // Optimization must be idempotent and verified...
  ir::Module M = lower(
      "int collatz(int n) {\n"
      "  int steps = 0;\n"
      "  while (n != 1) {\n"
      "    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n"
      "    steps = steps + 1;\n"
      "  }\n"
      "  return steps;\n"
      "}");
  Function &F = M.function(0);
  unsigned First = opt::runStaticOptimizations(F, M);
  (void)First;
  unsigned Second = opt::runStaticOptimizations(F, M);
  EXPECT_EQ(Second, 0u) << "optimizer failed to reach a fixpoint";
  EXPECT_EQ(verifyFunction(F, M), "");

  // ...and must not change what a program computes: on every Table 3
  // workload, static builds of the optimized and the unoptimized module
  // return the same region result and leave the same output range.
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    core::DycContext Optimized, Unoptimized;
    std::vector<std::string> Errors;
    ASSERT_TRUE(Optimized.compile(W.Source, Errors)) << W.Name;
    Unoptimized.moduleMutable() = reftest::lowerForOptimizer(W.Source);
    ASSERT_EQ(verifyModule(Unoptimized.module()), "") << W.Name;

    auto EO = Optimized.buildStatic();
    auto EU = Unoptimized.buildStatic();
    workloads::WorkloadSetup SO = W.Setup(*EO->Machine);
    workloads::WorkloadSetup SU = W.Setup(*EU->Machine);
    ASSERT_EQ(SO.OutBase, SU.OutBase) << W.Name;
    ASSERT_EQ(SO.OutLen, SU.OutLen) << W.Name;
    Word RO = EO->Machine->run(
        static_cast<uint32_t>(EO->findFunction(W.RegionFunc)), SO.RegionArgs);
    Word RU = EU->Machine->run(
        static_cast<uint32_t>(EU->findFunction(W.RegionFunc)), SU.RegionArgs);
    EXPECT_EQ(RO.Bits, RU.Bits) << W.Name;
    for (int64_t I = 0; I != SO.OutLen; ++I)
      ASSERT_EQ(EO->Machine->memory()[SO.OutBase + I].Bits,
                EU->Machine->memory()[SU.OutBase + I].Bits)
          << W.Name << " output word " << I;
  }
}

TEST(RoundSchedule, MatchesRebuildingEveryPassOnTable3) {
  for (const workloads::Workload &W : workloads::allWorkloads())
    reftest::expectSchedulesAgree(W.Source, W.Name);
}

TEST(RoundSchedule, FoldedBranchAndCoalesceInOneRound) {
  // Round 1 folds `if (1)` (so CopyPropagation needs fresh reaching
  // definitions: x = b no longer reaches the return) and coalesces
  // s = a * 3, whose two definitions keep it from being propagated (so
  // DCE gets fresh liveness).
  const std::string Src = "int f(int a, int b) {\n"
                          "  int x = a;\n"
                          "  if (1) { } else { x = b; }\n"
                          "  int s = 0;\n"
                          "  if (b) { s = a * 3; }\n"
                          "  return x + s;\n"
                          "}";
  ir::Module M = reftest::lowerForOptimizer(Src);
  Function &F = M.function(0);
  opt::FoldResult Fold =
      opt::runConstantFold(F, analysis::ReachingDefs(F, analysis::CFG(F)));
  EXPECT_TRUE(Fold.FoldedBranch);
  analysis::CFG G(F);
  opt::runCopyPropagation(F, analysis::ReachingDefs(F, G));
  EXPECT_TRUE(opt::runCoalesceMoves(F, analysis::Liveness(F, G)));

  reftest::expectSchedulesAgree(Src, "fold + coalesce");
}

TEST(RoundSchedule, CoalescingKeepsBlockBoundaryLiveness) {
  // Coalescing renames a temporary's block-local definition; no register
  // enters or leaves a block's live-in or live-out set. So DCE sees the
  // same liveness when it reuses the one CoalesceMoves read, which is what
  // the round schedule does.
  size_t Coalesced = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    ir::Module M = reftest::lowerForOptimizer(W.Source);
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      Function &F = M.function(static_cast<int>(I));
      opt::runConstantFold(F, analysis::ReachingDefs(F, analysis::CFG(F)));
      analysis::CFG G(F);
      opt::runCopyPropagation(F, analysis::ReachingDefs(F, G));
      analysis::Liveness Before(F, G);
      if (!opt::runCoalesceMoves(F, Before))
        continue;
      ++Coalesced;
      analysis::Liveness After(F, G);
      for (BlockId B = 0; B != F.numBlocks(); ++B) {
        EXPECT_TRUE(Before.liveIn(B) == After.liveIn(B)) << W.Name << F.Name;
        EXPECT_TRUE(Before.liveOut(B) == After.liveOut(B)) << W.Name << F.Name;
      }
    }
  }
  EXPECT_GT(Coalesced, 0u);
}

} // namespace
