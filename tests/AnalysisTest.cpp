//===- tests/AnalysisTest.cpp - dataflow analysis unit tests ----------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/ReachingDefs.h"
#include "bta/BTAnalysis.h"
#include "frontend/Lower.h"
#include "ir/IRBuilder.h"
#include "opt/Passes.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace dyc;
using namespace dyc::ir;

namespace {

/// A diamond with a loop on one side:
///   bb0 -> bb1 -> bb2 -> bb1 (latch) ; bb1 -> bb3 ; bb0 -> bb3
Function makeLoopDiamond() {
  Function F;
  F.Name = "g";
  F.RetTy = Type::I64;
  Reg P = F.newReg(Type::I64, "p");
  F.NumParams = 1;
  BlockId B0 = F.newBlock();
  BlockId B1 = F.newBlock();
  BlockId B2 = F.newBlock();
  BlockId B3 = F.newBlock();
  IRBuilder B(F);
  B.setInsertPoint(B0);
  B.condBr(P, B1, B3);
  B.setInsertPoint(B1);
  Reg C = B.binary(Opcode::CmpLt, P, P);
  B.condBr(C, B2, B3);
  B.setInsertPoint(B2);
  Reg X = B.binary(Opcode::Add, P, P, "x");
  (void)X;
  B.br(B1);
  B.setInsertPoint(B3);
  B.ret(P);
  return F;
}

/// A CFG edge list as a vector, for element-wise comparison.
std::vector<BlockId> ids(std::span<const BlockId> L) {
  return {L.begin(), L.end()};
}

TEST(CFGTest, PredsSuccsRPO) {
  Function F = makeLoopDiamond();
  analysis::CFG G(F);
  EXPECT_EQ(ids(G.succs(0)), (std::vector<BlockId>{1, 3}));
  EXPECT_EQ(ids(G.succs(2)), (std::vector<BlockId>{1}));
  EXPECT_EQ(G.preds(1).size(), 2u); // from bb0 and the latch bb2
  EXPECT_EQ(G.preds(3).size(), 2u);
  EXPECT_EQ(G.rpo().front(), 0u);
  EXPECT_TRUE(G.isReachable(3));
  // RPO visits a block before its non-backedge successors.
  EXPECT_LT(G.rpoIndex(0), G.rpoIndex(1));
  EXPECT_LT(G.rpoIndex(1), G.rpoIndex(2));
}

TEST(CFGTest, CondBrWithEqualTargetsKeepsBothEdges) {
  // bb0: condbr p, bb1, bb2 ; bb1: condbr p, bb2, bb2 ; bb2: ret p. Before
  // SimplifyCFG folds it, bb1's condbr is two edges into bb2.
  Function F;
  F.Name = "dup";
  F.RetTy = Type::I64;
  Reg P = F.newReg(Type::I64, "p");
  F.NumParams = 1;
  BlockId B0 = F.newBlock();
  BlockId B1 = F.newBlock();
  BlockId B2 = F.newBlock();
  IRBuilder B(F);
  B.setInsertPoint(B0);
  B.condBr(P, B1, B2);
  B.setInsertPoint(B1);
  B.condBr(P, B2, B2);
  B.setInsertPoint(B2);
  B.ret(P);
  analysis::CFG G(F);
  EXPECT_EQ(ids(G.succs(B0)), (std::vector<BlockId>{B1, B2}));
  EXPECT_EQ(ids(G.succs(B1)), (std::vector<BlockId>{B2, B2}));
  EXPECT_EQ(ids(G.preds(B1)), (std::vector<BlockId>{B0}));
  EXPECT_EQ(ids(G.preds(B2)), (std::vector<BlockId>{B0, B1, B1}));
  EXPECT_TRUE(G.succs(B2).empty());
}

TEST(CFGTest, UnreachableBlocksExcluded) {
  Function F;
  F.Name = "u";
  Reg R0 = F.newReg(Type::I64);
  BlockId B0 = F.newBlock();
  BlockId Dead = F.newBlock();
  IRBuilder B(F);
  B.setInsertPoint(B0);
  Instruction C;
  C.Op = Opcode::ConstI;
  C.Ty = Type::I64;
  C.Dst = R0;
  C.Imm = 0;
  F.block(B0).Instrs.push_back(C);
  B.ret(R0);
  F.RetTy = Type::I64;
  B.setInsertPoint(Dead);
  B.br(Dead);
  analysis::CFG G(F);
  EXPECT_FALSE(G.isReachable(Dead));
  EXPECT_EQ(G.rpo().size(), 1u);
}

TEST(DominatorsTest, LoopDiamond) {
  Function F = makeLoopDiamond();
  analysis::CFG G(F);
  analysis::Dominators D(F, G);
  EXPECT_TRUE(D.dominates(0, 1));
  EXPECT_TRUE(D.dominates(0, 3));
  EXPECT_TRUE(D.dominates(1, 2));
  EXPECT_FALSE(D.dominates(1, 3)); // bb3 reachable directly from bb0
  EXPECT_FALSE(D.dominates(2, 1));
  EXPECT_EQ(D.idom(2), 1u);
  EXPECT_EQ(D.idom(3), 0u);
}

TEST(LoopInfoTest, FindsNaturalLoop) {
  Function F = makeLoopDiamond();
  analysis::CFG G(F);
  analysis::Dominators D(F, G);
  analysis::LoopInfo LI(F, G, D);
  ASSERT_EQ(LI.loops().size(), 1u);
  const analysis::Loop &L = LI.loops()[0];
  EXPECT_EQ(L.Header, 1u);
  EXPECT_EQ(L.Latches, (std::vector<BlockId>{2}));
  EXPECT_TRUE(L.contains(2));
  EXPECT_FALSE(L.contains(3));
  EXPECT_TRUE(LI.inAnyLoop(2));
  EXPECT_FALSE(LI.inAnyLoop(0));
  // x is assigned inside the loop -> loop-variant.
  std::vector<Reg> Variant = LI.loopVariantRegs(F, 1);
  EXPECT_FALSE(Variant.empty());
}

/// Lowers MiniC and returns the module (asserts success).
ir::Module lower(const std::string &Src) {
  ir::Module M;
  std::vector<std::string> Errors;
  bool OK = frontend::compileMiniC(Src, M, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return M;
}

TEST(LivenessTest, ParamsAndAccumulators) {
  ir::Module M = lower("int f(int a, int b) {\n"
                       "  int s = 0;\n"
                       "  int i;\n"
                       "  for (i = 0; i < a; i = i + 1) { s = s + b; }\n"
                       "  return s;\n"
                       "}");
  const Function &F = M.function(0);
  analysis::CFG G(F);
  analysis::Liveness LV(F, G);
  // a (r0) and b (r1) are live into the entry block.
  EXPECT_TRUE(LV.liveIn(0).test(0));
  EXPECT_TRUE(LV.liveIn(0).test(1));
  // At the loop header, the accumulator s (r2) is live.
  bool SomewhereLive = false;
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (!G.succs(B).empty() && LV.liveIn(B).test(2))
      SomewhereLive = true;
  EXPECT_TRUE(SomewhereLive);
}

TEST(LivenessTest, LiveBeforeWalksBackwards) {
  ir::Module M = lower("int f(int a) { int t = a + 1; return t; }");
  const Function &F = M.function(0);
  analysis::CFG G(F);
  analysis::Liveness LV(F, G);
  // Before instruction 0 of the entry block, the parameter is live.
  BitVector L = LV.liveBefore(F, 0, 0);
  EXPECT_TRUE(L.test(0));
}

TEST(ReachingDefsTest, UniqueDefThroughControlFlow) {
  ir::Module M = lower("int f(int a, int p) {\n"
                       "  int x = 5;\n"
                       "  if (p) { a = x + 1; } else { a = x + 2; }\n"
                       "  return a + x;\n"
                       "}");
  const Function &F = M.function(0);
  analysis::CFG G(F);
  analysis::ReachingDefs RD(F, G);
  // In the return block, x (a single definition) reaches uniquely...
  BlockId RetBlock = NoBlock;
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    if (!F.block(B).Instrs.empty() &&
        F.block(B).terminator().Op == Opcode::Ret)
      RetBlock = B;
  ASSERT_NE(RetBlock, NoBlock);
  Reg X = 2; // params occupy r0/r1; x is the first local
  EXPECT_GE(RD.uniqueReachingDef(F, RetBlock, 0, X), 0);
  // ...while a (two definitions) does not.
  EXPECT_EQ(RD.uniqueReachingDef(F, RetBlock, 0, 0), -1);
}

TEST(ReachingDefsTest, ParameterPseudoDefs) {
  ir::Module M = lower("int f(int a) { return a; }");
  const Function &F = M.function(0);
  analysis::CFG G(F);
  analysis::ReachingDefs RD(F, G);
  int Def = RD.uniqueReachingDef(F, 0, 0, 0);
  ASSERT_GE(Def, 0);
  EXPECT_EQ(RD.defSites()[static_cast<size_t>(Def)].InstrIdx, 0xffffffffu);
}

TEST(ReachingDefsTest, ParameterPseudoDefKillsLoopDefsAtEntry) {
  // The entry block is a loop header, and the loop redefines parameter p:
  //   bb0: condbr p, bb1, bb2 ; bb1: p = add p, p ; br bb0 ; bb2: ret p
  // p's pseudo-def is generated at bb0 and kills p's other definitions
  // there, although bb0 does not redefine p. So only the pseudo-def
  // reaches out of bb0, while both definitions reach bb0's own entry.
  Function F;
  F.Name = "e";
  F.RetTy = Type::I64;
  Reg P = F.newReg(Type::I64, "p");
  F.NumParams = 1;
  BlockId B0 = F.newBlock();
  BlockId B1 = F.newBlock();
  BlockId B2 = F.newBlock();
  IRBuilder B(F);
  B.setInsertPoint(B0);
  B.condBr(P, B1, B2);
  F.block(B1).Instrs.push_back(makeBinary(Opcode::Add, Type::I64, P, P, P));
  B.setInsertPoint(B1);
  B.br(B0);
  B.setInsertPoint(B2);
  B.ret(P);

  analysis::CFG G(F);
  analysis::ReachingDefs RD(F, G);
  ASSERT_EQ(RD.sitesOf(P).size(), 2u); // the add and the pseudo-def
  for (BlockId Out : {B1, B2}) {
    int Def = RD.uniqueReachingDef(F, Out, 0, P);
    ASSERT_GE(Def, 0) << "bb" << Out;
    EXPECT_EQ(RD.defSites()[static_cast<size_t>(Def)].InstrIdx,
              analysis::ParamSite)
        << "bb" << Out;
  }
  EXPECT_EQ(RD.uniqueReachingDef(F, B0, 0, P), -1);
}

/// Walks every block of \p F with a cursor and expects it to answer
/// uniqueReachingDef at every register operand; returns the operand count.
size_t expectCursorMatchesBackwardScan(const Function &F,
                                       const std::string &What) {
  analysis::CFG G(F);
  analysis::ReachingDefs RD(F, G);
  analysis::ReachingDefs::Cursor Cur(RD);
  size_t Operands = 0;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    Cur.enterBlock(B);
    const BasicBlock &BB = F.block(B);
    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      BB.Instrs[Idx].forEachUse([&](Reg R) {
        ++Operands;
        EXPECT_EQ(Cur.uniqueReachingDef(R),
                  RD.uniqueReachingDef(F, B, Idx, R))
            << What << " bb" << B << " instr " << Idx << " r" << R;
      });
      Cur.advance(BB.Instrs[Idx]);
    }
  }
  return Operands;
}

TEST(ReachingDefsTest, CursorMatchesBackwardScanOnTable3) {
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    ir::Module M = lower(W.Source);
    for (size_t I = 0; I != M.numFunctions(); ++I)
      bta::normalizeAnnotations(M.function(static_cast<int>(I)));
    size_t Before = 0, After = 0;
    for (size_t I = 0; I != M.numFunctions(); ++I)
      Before += expectCursorMatchesBackwardScan(
          M.function(static_cast<int>(I)), W.Name + " unoptimized");
    opt::runStaticOptimizations(M);
    for (size_t I = 0; I != M.numFunctions(); ++I)
      After += expectCursorMatchesBackwardScan(
          M.function(static_cast<int>(I)), W.Name + " optimized");
    EXPECT_GT(Before, 0u) << W.Name;
    EXPECT_GT(After, 0u) << W.Name;
  }
}

} // namespace
