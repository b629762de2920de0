//===- tests/CogenTest.cpp - generating-extension and lowering unit tests ---------===//

#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"
#include "cogen/Lowering.h"
#include "frontend/Lower.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

using namespace dyc;
using namespace dyc::cogen;

namespace {

struct Built {
  ir::Module M;
  vm::Program Prog;
  std::vector<LoweredFunction> Lowered;
  std::vector<bta::RegionInfo> Regions;
  std::vector<GenExtFunction> GenExts;
};

/// Runs the full static half of the pipeline on \p Src.
std::unique_ptr<Built> buildAll(const std::string &Src,
                                OptFlags Flags = OptFlags()) {
  auto B = std::make_unique<Built>();
  std::vector<std::string> Errors;
  EXPECT_TRUE(frontend::compileMiniC(Src, B->M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  for (size_t I = 0; I != B->M.numFunctions(); ++I)
    bta::normalizeAnnotations(B->M.function(static_cast<int>(I)));
  opt::runStaticOptimizations(B->M);

  std::vector<int> Ordinals(B->M.numFunctions(), -1);
  int Next = 0;
  for (size_t I = 0; I != B->M.numFunctions(); ++I) {
    B->Regions.push_back(bta::analyzeFunction(
        B->M.function(static_cast<int>(I)), B->M, Flags));
    B->Regions.back().FuncIdx = static_cast<int>(I);
    if (!B->Regions.back().Contexts.empty())
      Ordinals[I] = Next++;
  }
  cogen::bindExternals(B->M, B->Prog);
  B->Lowered = cogen::lowerModule(B->M, B->Prog, /*WithRegions=*/true,
                                  B->Regions, Ordinals);
  for (size_t I = 0; I != B->M.numFunctions(); ++I)
    if (Ordinals[I] >= 0)
      B->GenExts.push_back(cogen::buildGenExt(
          B->M.function(static_cast<int>(I)), B->M,
          std::move(B->Regions[I]), B->Lowered[I], Flags));
  return B;
}

const char *MixedSrc = R"(
double f(double* w, double* img, int k, double x) {
  make_static(w, k);
  double weight = w@[k];
  double t = img[k] * weight;
  double u = x * 2.0;
  return t + u;
}
)";

TEST(Cogen, ClassifiesSetupVsEmit) {
  auto B = buildAll(MixedSrc);
  ASSERT_EQ(B->GenExts.size(), 1u);
  const GenExtFunction &GX = B->GenExts[0];
  unsigned EvalLoads = 0, Emits = 0, Evals = 0;
  for (const GenBlock &GB : GX.Blocks)
    for (const SetupOp &Op : GB.Ops) {
      if (Op.K == SetupOp::EvalLoad)
        ++EvalLoads;
      if (Op.K == SetupOp::EmitInstr)
        ++Emits;
      if (Op.K == SetupOp::Eval || Op.K == SetupOp::EvalConst)
        ++Evals;
    }
  EXPECT_EQ(EvalLoads, 1u); // the @ load of w[k]
  EXPECT_GE(Emits, 3u);     // img load, fmul(s), fadd...
  EXPECT_GE(Evals, 1u);     // address arithmetic w + k
}

TEST(Cogen, ZcpPlansMarkSingleStaticOperandOps) {
  auto B = buildAll(MixedSrc);
  const GenExtFunction &GX = B->GenExts[0];
  bool SawZcpCand = false;
  for (const GenBlock &GB : GX.Blocks)
    for (const SetupOp &Op : GB.Ops)
      if (Op.K == SetupOp::EmitInstr && Op.Op == ir::Opcode::FMul &&
          Op.ZcpCand) {
        SawZcpCand = true;
        // Exactly one operand must be static.
        EXPECT_NE(Op.A.Static, Op.B.Static);
      }
  EXPECT_TRUE(SawZcpCand);
}

TEST(Cogen, DeferabilityRequiresBlockDeadResult) {
  auto B = buildAll(MixedSrc);
  const GenExtFunction &GX = B->GenExts[0];
  for (const GenBlock &GB : GX.Blocks)
    for (const SetupOp &Op : GB.Ops) {
      if (Op.K != SetupOp::EmitInstr)
        continue;
      if (Op.Op == ir::Opcode::Store) {
        EXPECT_FALSE(Op.Deferrable) << "stores are never deferrable";
      }
    }
}

TEST(Cogen, DaeFlagOffDisablesDeferral) {
  OptFlags Fl;
  Fl.DeadAssignmentElimination = false;
  auto B = buildAll(MixedSrc, Fl);
  for (const GenBlock &GB : B->GenExts[0].Blocks)
    for (const SetupOp &Op : GB.Ops)
      if (Op.K == SetupOp::EmitInstr) {
        EXPECT_FALSE(Op.Deferrable);
      }
}

TEST(Cogen, RegionCarriesFrameLayoutAndTypes) {
  auto B = buildAll(MixedSrc);
  const GenExtFunction &GX = B->GenExts[0];
  const ir::Function &F = B->M.function(GX.FuncIdx);
  EXPECT_EQ(GX.RegTypes.size(), F.numRegs());
  EXPECT_GT(GX.NumRegs, F.numRegs()); // staging + scratch
  EXPECT_EQ(GX.BlockPC.size(), F.numBlocks());
}

//===----------------------------------------------------------------------===//
// Lowering.
//===----------------------------------------------------------------------===//

TEST(Lowering, FoldsConstantsIntoImmediateForms) {
  auto B = buildAll("int f(int x) { return x * 3 + 7; }");
  const vm::CodeObject &CO = B->Prog.function(0);
  bool SawMulI = false, SawAddI = false, SawConst = false;
  for (const vm::Instr &I : CO.Code) {
    if (I.Opcode == vm::Op::MulI && I.Imm == 3)
      SawMulI = true;
    if (I.Opcode == vm::Op::AddI && I.Imm == 7)
      SawAddI = true;
    if (I.Opcode == vm::Op::ConstI)
      SawConst = true;
  }
  EXPECT_TRUE(SawMulI);
  EXPECT_TRUE(SawAddI);
  EXPECT_FALSE(SawConst) << "folded constants must not be materialized";
}

TEST(Lowering, ExpandsPow2DivExactly) {
  auto B = buildAll("int f(int x) { return x / 8 + x % 4; }");
  const vm::CodeObject &CO = B->Prog.function(0);
  unsigned Divs = 0, Shifts = 0;
  for (const vm::Instr &I : CO.Code) {
    if (I.Opcode == vm::Op::Div || I.Opcode == vm::Op::DivI ||
        I.Opcode == vm::Op::Rem || I.Opcode == vm::Op::RemI)
      ++Divs;
    if (I.Opcode == vm::Op::ShrI || I.Opcode == vm::Op::ShlI)
      ++Shifts;
  }
  EXPECT_EQ(Divs, 0u);
  EXPECT_GE(Shifts, 3u);
}

TEST(Lowering, PicksMovKindByType) {
  auto B = buildAll("double f(double x, int p) {\n"
                    "  double a = x;\n"
                    "  int b = p;\n"
                    "  if (p) { a = a + 1.0; b = b + 1; }\n"
                    "  return a + (double)b;\n"
                    "}");
  const vm::CodeObject &CO = B->Prog.function(0);
  for (const vm::Instr &I : CO.Code) {
    // No checks on counts here — just that both kinds exist and the
    // verifier-equivalent invariant holds: FMov only between fp values is
    // untestable at this level, so assert the program still runs.
    (void)I;
  }
  vm::VM M(B->Prog);
  Word R = M.run(0, {Word::fromFloat(1.5), Word::fromInt(1)});
  EXPECT_DOUBLE_EQ(R.asFloat(), 2.5 + 2.0);
}

TEST(Lowering, EmitsEnterRegionForAnnotatedBlocks) {
  auto B = buildAll("int f(int n) { make_static(n); return n * 2; }");
  const vm::CodeObject &CO = B->Prog.function(0);
  unsigned Enters = 0;
  for (const vm::Instr &I : CO.Code)
    if (I.Opcode == vm::Op::EnterRegion)
      ++Enters;
  EXPECT_EQ(Enters, 1u);
}

TEST(Lowering, StaticCompileIgnoresAnnotations) {
  ir::Module M;
  std::vector<std::string> Errors;
  ASSERT_TRUE(frontend::compileMiniC(
      "int f(int n) { make_static(n); return n * 2; }", M, Errors));
  for (size_t I = 0; I != M.numFunctions(); ++I)
    bta::normalizeAnnotations(M.function(static_cast<int>(I)));
  opt::runStaticOptimizations(M);
  vm::Program Prog;
  cogen::bindExternals(M, Prog);
  std::vector<bta::RegionInfo> Empty(M.numFunctions());
  std::vector<int> NoOrd(M.numFunctions(), -1);
  cogen::lowerModule(M, Prog, /*WithRegions=*/false, Empty, NoOrd);
  for (const vm::Instr &I : Prog.function(0).Code)
    EXPECT_NE(I.Opcode, vm::Op::EnterRegion);
  vm::VM VMach(Prog);
  EXPECT_EQ(VMach.run(0, {Word::fromInt(21)}).asInt(), 42);
}

TEST(Lowering, CallsStageArgumentsContiguously) {
  auto B = buildAll("int g(int a, int b, int c) { return a + b - c; }\n"
                    "int f(int x) { return g(x, 5, x * 2); }");
  int FIdx = B->M.findFunction("f");
  const vm::CodeObject &CO = B->Prog.function(FIdx);
  bool SawCall = false;
  for (const vm::Instr &I : CO.Code)
    if (I.Opcode == vm::Op::Call) {
      SawCall = true;
      EXPECT_EQ(I.C, 3u);
      EXPECT_EQ(I.B, B->Lowered[FIdx].StageBase);
    }
  EXPECT_TRUE(SawCall);
  vm::VM M(B->Prog);
  EXPECT_EQ(M.run(FIdx, {Word::fromInt(10)}).asInt(), 10 + 5 - 20);
}

// bindExternals assumes what checkExternals reports: one error per
// declaration without a host function of the declared arity.
TEST(Lowering, CheckExternalsReportsNameAndArity) {
  ir::Module M;
  M.declareExternal({"cos", 1, true, ir::Type::F64});
  M.declareExternal({"no_such_external", 1, true, ir::Type::F64});
  M.declareExternal({"pow", 1, true, ir::Type::F64});
  M.declareExternal({"sqrt", 0, true, ir::Type::F64, /*Line=*/7});
  std::vector<std::string> Errors;
  EXPECT_FALSE(cogen::checkExternals(M, Errors));
  EXPECT_EQ(Errors,
            (std::vector<std::string>{
                "no host implementation for external 'no_such_external'",
                "external 'pow' is declared with 1 parameter, but its host "
                "implementation takes 2",
                "line 7: external 'sqrt' is declared with 0 parameters, but "
                "its host implementation takes 1"}));

  ir::Module Good;
  Good.declareExternal({"cos", 1, true, ir::Type::F64});
  Good.declareExternal({"pow", 2, true, ir::Type::F64});
  Errors.clear();
  EXPECT_TRUE(cogen::checkExternals(Good, Errors));
  EXPECT_TRUE(Errors.empty());
  vm::Program Prog;
  cogen::bindExternals(Good, Prog);
  EXPECT_EQ(Prog.Externals.size(), 2u);
}

} // namespace
