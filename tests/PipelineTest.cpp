//===- tests/PipelineTest.cpp - End-to-end pipeline smoke tests -------------------===//
//
// Compiles small annotated MiniC programs, runs both configurations, and
// checks (a) result equivalence and (b) that the headline staged
// optimizations actually fire.
//
//===----------------------------------------------------------------------===//

#include "core/DycContext.h"

#include <gtest/gtest.h>

using namespace dyc;
using core::DycContext;
using core::Executable;

namespace {

std::unique_ptr<DycContext> compileOk(const std::string &Src) {
  auto Ctx = std::make_unique<DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(OK);
  return Ctx;
}

const char *DotSource = R"(
double dot(double* a, double* b, int n) {
  int i;
  make_static(a, n, i);
  double sum = 0.0;
  for (i = 0; i < n; i = i + 1) {
    sum = sum + a@[i] * b[i];
  }
  return sum;
}
)";

// An extern the host does not implement, or declares with the wrong
// arity or return type, is a compile error (dycc exits 1 with it) instead
// of an abort when an executable binds the module's externals, or of a
// double's bits read as an int.
TEST(Pipeline, UnboundExternalsAreCompileErrors) {
  struct Case {
    const char *Src;
    std::vector<std::string> Errors;
  };
  const Case Cases[] = {
      {"extern int nosuch(int); int f(int x) { return nosuch(x); }",
       {"line 1: no host implementation for external 'nosuch'"}},
      {"extern double sqrt(double, double);\n"
       "double f(double x) { return sqrt(x, x); }",
       {"line 1: external 'sqrt' is declared with 2 parameters, but its "
        "host implementation takes 1"}},
      {"extern double cos(double);\n"
       "extern double nosuch(double);\n"
       "extern double pow(double);\n"
       "double f(double x) { return cos(x) + nosuch(x) + pow(x); }",
       {"line 2: no host implementation for external 'nosuch'",
        "line 3: external 'pow' is declared with 1 parameter, but its host "
        "implementation takes 2"}},
      {"extern int sqrt(double); int f(int x) { return sqrt(x); }",
       {"line 1: external 'sqrt' is declared to return int, but its host "
        "implementation returns double"}},
      {"extern double cos(double);\n"
       "extern void sin(double);\n"
       "double f(double x) { sin(x); return cos(x); }",
       {"line 2: external 'sin' is declared to return void, but its host "
        "implementation returns double"}},
  };
  for (const Case &C : Cases) {
    DycContext Ctx;
    std::vector<std::string> Errors;
    EXPECT_FALSE(Ctx.compile(C.Src, Errors)) << C.Src;
    EXPECT_EQ(Errors, C.Errors) << C.Src;
  }
}

TEST(Pipeline, DotProductSpecializes) {
  auto Ctx = compileOk(DotSource);
  auto StaticE = Ctx->buildStatic();
  auto DynE = Ctx->buildDynamic();

  const int N = 8;
  int64_t A = StaticE->Machine->allocMemory(N);
  int64_t B = StaticE->Machine->allocMemory(N);
  int64_t A2 = DynE->Machine->allocMemory(N);
  int64_t B2 = DynE->Machine->allocMemory(N);
  ASSERT_EQ(A, A2);
  ASSERT_EQ(B, B2);
  for (int I = 0; I != N; ++I) {
    double AV = I % 3 == 0 ? 0.0 : (I % 3 == 1 ? 1.0 : 2.5);
    double BV = 1.5 * I - 2.0;
    StaticE->Machine->memory()[A + I] = Word::fromFloat(AV);
    StaticE->Machine->memory()[B + I] = Word::fromFloat(BV);
    DynE->Machine->memory()[A + I] = Word::fromFloat(AV);
    DynE->Machine->memory()[B + I] = Word::fromFloat(BV);
  }

  std::vector<Word> Args = {Word::fromInt(A), Word::fromInt(B),
                            Word::fromInt(N)};
  int F = StaticE->findFunction("dot");
  ASSERT_GE(F, 0);
  Word SR = StaticE->Machine->run(F, Args);
  Word DR = DynE->Machine->run(F, Args);
  EXPECT_DOUBLE_EQ(SR.asFloat(), DR.asFloat());

  // Specialization happened and the staged optimizations fired.
  int Ord = DynE->regionOrdinalOf("dot");
  ASSERT_GE(Ord, 0);
  const runtime::RegionStats &St = DynE->RT->stats(Ord);
  EXPECT_EQ(St.SpecializationRuns, 1u);
  EXPECT_GT(St.InstructionsGenerated, 0u);
  EXPECT_GT(St.StaticLoadsExecuted, 0u); // the @ loads ran at compile time
  EXPECT_GT(St.ZcpApplied, 0u);          // multiplies by 0.0 and 1.0
  EXPECT_GT(St.MaxBlockInstances, 1u);   // the loop unrolled

  // Dynamic code should beat static code per invocation.
  uint64_t S0 = StaticE->Machine->execCycles();
  for (int I = 0; I != 50; ++I)
    StaticE->Machine->run(F, Args);
  uint64_t SCost = StaticE->Machine->execCycles() - S0;
  uint64_t D0 = DynE->Machine->execCycles();
  for (int I = 0; I != 50; ++I)
    DynE->Machine->run(F, Args);
  uint64_t DCost = DynE->Machine->execCycles() - D0;
  EXPECT_LT(DCost, SCost);

  // Second run reuses the cache: no new specializations.
  EXPECT_EQ(DynE->RT->stats(Ord).SpecializationRuns, 1u);
  EXPECT_GT(DynE->RT->stats(Ord).CacheHits, 0u);
}

TEST(Pipeline, StaticAndDynamicAgreeOnBranchyCode) {
  const char *Src = R"(
int classify(int* table, int n, int x) {
  int i;
  int result = 0 - 1;
  make_static(table, n, i, result);
  for (i = 0; i < n; i = i + 1) {
    if (x < table@[i]) {
      result = i;
      i = n; /* exit the loop */
    }
  }
  return result;
}
)";
  auto Ctx = compileOk(Src);
  auto StaticE = Ctx->buildStatic();
  auto DynE = Ctx->buildDynamic();
  const int N = 5;
  int64_t T = StaticE->Machine->allocMemory(N);
  int64_t T2 = DynE->Machine->allocMemory(N);
  ASSERT_EQ(T, T2);
  const int64_t Bounds[N] = {3, 7, 20, 55, 100};
  for (int I = 0; I != N; ++I) {
    StaticE->Machine->memory()[T + I] = Word::fromInt(Bounds[I]);
    DynE->Machine->memory()[T + I] = Word::fromInt(Bounds[I]);
  }
  int F = StaticE->findFunction("classify");
  for (int64_t X : {-5, 0, 3, 10, 54, 55, 99, 1000}) {
    std::vector<Word> Args = {Word::fromInt(T), Word::fromInt(N),
                              Word::fromInt(X)};
    Word SR = StaticE->Machine->run(F, Args);
    Word DR = DynE->Machine->run(F, Args);
    EXPECT_EQ(SR.asInt(), DR.asInt()) << "x=" << X;
  }
}

bool hasDivOrRem(const ir::Function &F) {
  for (size_t B = 0; B != F.numBlocks(); ++B)
    for (const ir::Instruction &I :
         F.block(static_cast<ir::BlockId>(B)).Instrs)
      if (I.Op == ir::Opcode::Div || I.Op == ir::Opcode::Rem)
        return true;
  return false;
}

TEST(Pipeline, Int64MinByMinusOneWrapsInEveryBuild) {
  // INT64_MIN / -1 overflows in C++ and traps on the host's divide
  // instruction. Guest integers wrap instead: the quotient is INT64_MIN
  // and the remainder 0, whichever stage evaluates the operation, and the
  // static and dynamic builds agree.
  struct Variant {
    const char *Name;
    const char *Source; // OP stands for / or %
    std::vector<Word> Args;
    bool Specializes; // the dynamic build specializes a region
    bool Folded;      // ConstantFold removes the division
  };
  const Variant Variants[] = {
      {"d dynamic",
       "int f(int d) { int a = 0 - 9223372036854775807 - 1; return a OP d; }",
       {Word::fromInt(-1)}, false, false},
      {"d dynamic in a specialized region",
       "int f(int k, int d) { make_static(k); "
       "int a = 0 - 9223372036854775807 - k; return a OP d; }",
       {Word::fromInt(1), Word::fromInt(-1)}, true, false},
      {"d static, so the specializer folds it",
       "int f(int d) { make_static(d); "
       "int a = 0 - 9223372036854775807 - 1; return a OP d; }",
       {Word::fromInt(-1)}, true, false},
      {"both constant, so ConstantFold folds it",
       "int f(int d) { int a = 0 - 9223372036854775807 - 1; int b = 0 - 1; "
       "return a OP b + d; }",
       {Word::fromInt(0)}, false, true},
  };
  for (const Variant &V : Variants) {
    for (const char *Op : {"/", "%"}) {
      std::string Src = V.Source;
      Src.replace(Src.find("OP"), 2, Op);
      SCOPED_TRACE(std::string(V.Name) + ": " + Src);
      auto Ctx = compileOk(Src);
      const ir::Module &M = Ctx->module();
      EXPECT_EQ(hasDivOrRem(M.function(M.findFunction("f"))), !V.Folded);
      auto StaticE = Ctx->buildStatic();
      auto DynE = Ctx->buildDynamic();
      int F = StaticE->findFunction("f");
      ASSERT_GE(F, 0);
      const int64_t Want = Op[0] == '/' ? INT64_MIN : 0;
      EXPECT_EQ(StaticE->Machine->run(F, V.Args).asInt(), Want);
      EXPECT_EQ(DynE->Machine->run(F, V.Args).asInt(), Want);
      int Ord = DynE->regionOrdinalOf("f");
      EXPECT_EQ(Ord >= 0 && DynE->RT->stats(Ord).SpecializationRuns == 1,
                V.Specializes);
    }
  }
}

} // namespace
