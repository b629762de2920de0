//===- tests/FrontendTest.cpp - lexer/parser/lowering unit tests ------------------===//

#include "frontend/Lexer.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "ir/Module.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace dyc;
using namespace dyc::frontend;

namespace {

/// Tokens together with the source they view.
struct Lexed {
  std::unique_ptr<const std::string> Source;
  std::vector<Token> Toks;

  const Token &operator[](size_t I) const { return Toks[I]; }
  auto begin() const { return Toks.begin(); }
  auto end() const { return Toks.end(); }
};

Lexed lexOk(std::string Src) {
  Lexed L{std::make_unique<const std::string>(std::move(Src)), {}};
  std::vector<std::string> Errors;
  L.Toks = lex(*L.Source, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return L;
}

TEST(Lexer, TokenKinds) {
  auto T = lexOk("int x = 42; double y = 3.5e2; x @[ 1 ] @[2]");
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Text, "x");
  EXPECT_EQ(T[3].Kind, TokKind::IntLit);
  EXPECT_EQ(T[3].IntVal, 42);
  auto FloatTok = T[8];
  EXPECT_EQ(FloatTok.Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(FloatTok.FloatVal, 350.0);
  // "@[" only lexes as one token when adjacent.
  bool SawAtBracket = false;
  for (const Token &Tok : T)
    if (Tok.Kind == TokKind::AtLBracket)
      SawAtBracket = true;
  EXPECT_TRUE(SawAtBracket);
}

TEST(Lexer, CommentsAndOperators) {
  auto T = lexOk("a /* multi\nline */ <= b // trailing\n>> c != d");
  std::vector<TokKind> Kinds;
  for (const Token &Tok : T)
    Kinds.push_back(Tok.Kind);
  EXPECT_EQ(Kinds, (std::vector<TokKind>{
                       TokKind::Ident, TokKind::Le, TokKind::Ident,
                       TokKind::Shr, TokKind::Ident, TokKind::NotEq,
                       TokKind::Ident, TokKind::Eof}));
}

TEST(Lexer, DycKeywords) {
  auto T = lexOk("make_static make_dynamic cache_all cache_one "
                 "cache_one_unchecked pure");
  EXPECT_EQ(T[0].Kind, TokKind::KwMakeStatic);
  EXPECT_EQ(T[1].Kind, TokKind::KwMakeDynamic);
  EXPECT_EQ(T[2].Kind, TokKind::KwCacheAll);
  EXPECT_EQ(T[3].Kind, TokKind::KwCacheOne);
  EXPECT_EQ(T[4].Kind, TokKind::KwCacheOneUnchecked);
  EXPECT_EQ(T[5].Kind, TokKind::KwPure);
}

TEST(Lexer, ReportsBadCharacters) {
  std::vector<std::string> Errors;
  lex("int $x;", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("unexpected character"), std::string::npos);
}

TEST(Lexer, LiteralValuesMatchTheCLibrary) {
  // Integer literals saturate as strtoll does; floating ones are strtod's.
  for (std::string Int : {"0", "7", "042", "9223372036854775807",
                          "9223372036854775808", "123456789012345678901234"}) {
    Lexed T = lexOk(Int);
    ASSERT_EQ(T[0].Kind, TokKind::IntLit) << Int;
    EXPECT_EQ(T[0].IntVal, std::strtoll(Int.c_str(), nullptr, 10)) << Int;
  }
  for (std::string Flt : {"3.5", ".25", "1.", "2e3", "2.5e-3", "6E+2",
                          "0.1000000000000000055511151231257827"}) {
    Lexed T = lexOk(Flt);
    ASSERT_EQ(T[0].Kind, TokKind::FloatLit) << Flt;
    EXPECT_EQ(T[0].FloatVal, std::strtod(Flt.c_str(), nullptr)) << Flt;
  }
  // A second '.' or a bare exponent ends the literal.
  Lexed T = lexOk("1.2.5 3e");
  EXPECT_EQ(T[0].Text, "1.2");
  EXPECT_EQ(T[1].Text, ".5");
  EXPECT_EQ(T[2].Text, "3");
  EXPECT_EQ(T[3].Text, "e");
}

TEST(Lexer, LinesCountThroughComments) {
  Lexed T = lexOk("a /* one\ntwo */ b // three\n\nc");
  ASSERT_EQ(T.Toks.size(), 4u);
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[2].Line, 4u);
  EXPECT_EQ(T[3].Kind, TokKind::Eof);
  EXPECT_EQ(T[3].Line, 4u);
}

TEST(SymbolTable, DenseIdsThatOutliveGrowth) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.intern("x"), 0u);
  EXPECT_EQ(Syms.intern("y"), 1u);
  EXPECT_EQ(Syms.intern("x"), 0u);
  std::string_view X = Syms.name(0);
  // Enough names to rehash several times.
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(Syms.intern("v" + std::to_string(I)), 2u + I);
  EXPECT_EQ(Syms.size(), 1002u);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(Syms.intern("v" + std::to_string(I)), 2u + I);
  EXPECT_EQ(X, "x");
  EXPECT_EQ(Syms.name(501), "v499");
  EXPECT_EQ(Syms.intern(""), 1002u);
  EXPECT_EQ(Syms.name(1002), "");
}

ProgramAST parseOk(const std::string &Src) {
  std::vector<std::string> Errors;
  ProgramAST P = parseProgram(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return P;
}

/// The names of \p Syms, in order.
std::vector<std::string_view> namesOf(const ProgramAST &P,
                                      std::span<const Symbol> Syms) {
  std::vector<std::string_view> Out;
  for (Symbol S : Syms)
    Out.push_back(P.name(S));
  return Out;
}

TEST(Parser, FunctionAndPrecedence) {
  ProgramAST P = parseOk("int f(int a, int b) { return a + b * 2 - 1; }");
  ASSERT_EQ(P.Funcs.size(), 1u);
  const FuncDecl &F = P.Funcs[0];
  EXPECT_EQ(P.name(F.Name), "f");
  EXPECT_EQ(F.Params.size(), 2u);
  // ((a + (b*2)) - 1)
  const Stmt &Ret = *F.Body->Stmts[0];
  ASSERT_EQ(Ret.K, Stmt::Return);
  EXPECT_EQ(Ret.E->BOp, BinOp::Sub);
  EXPECT_EQ(Ret.E->L->BOp, BinOp::Add);
  EXPECT_EQ(Ret.E->L->R->BOp, BinOp::Mul);
}

TEST(Parser, MakeStaticWithPolicy) {
  ProgramAST P = parseOk(
      "void f(int a, int b) { make_static(a, b : cache_one_unchecked); }");
  const Stmt &S = *P.Funcs[0].Body->Stmts[0];
  ASSERT_EQ(S.K, Stmt::MakeStatic);
  EXPECT_EQ(namesOf(P, S.Vars), (std::vector<std::string_view>{"a", "b"}));
  EXPECT_EQ(S.Policy, ir::CachePolicy::CacheOneUnchecked);
}

TEST(Parser, StaticIndexAndPointerTypes) {
  ProgramAST P = parseOk(
      "double g(double* m, int* k) { return m@[k[0]] + m[1]; }");
  const Stmt &Ret = *P.Funcs[0].Body->Stmts[0];
  EXPECT_EQ(Ret.E->L->K, Expr::Index);
  EXPECT_TRUE(Ret.E->L->StaticIndex);
  EXPECT_FALSE(Ret.E->R->StaticIndex);
}

TEST(Parser, ExternPureAndCalls) {
  ProgramAST P = parseOk("extern pure double cos(double);\n"
                         "double f(double x) { return cos(x); }");
  ASSERT_EQ(P.Externs.size(), 1u);
  EXPECT_TRUE(P.Externs[0].Pure);
  EXPECT_EQ(P.Externs[0].ArgTys.size(), 1u);
}

TEST(Parser, ForDesugarsIncrement) {
  ProgramAST P = parseOk(
      "int f() { int s = 0; int i; for (i = 0; i < 4; i++) { s = s + i; } "
      "return s; }");
  EXPECT_EQ(P.Funcs.size(), 1u);
}

TEST(Parser, RecoversAndReportsErrors) {
  std::vector<std::string> Errors;
  parseProgram("int f( { return; }", Errors);
  EXPECT_FALSE(Errors.empty());
}

TEST(Parser, AstOutlivesItsSource) {
  // The AST copies every name into its own table; nothing views the
  // source after parsing (ASan catches a dangling view).
  auto Source = std::make_unique<std::string>(
      "int add_one(int some_long_parameter_name) {\n"
      "  make_static(some_long_parameter_name);\n"
      "  return some_long_parameter_name + 1;\n"
      "}\n");
  std::vector<std::string> Errors;
  ProgramAST P = parseProgram(*Source, Errors);
  ASSERT_TRUE(Errors.empty());
  std::fill(Source->begin(), Source->end(), '#');
  Source.reset();
  ProgramAST Moved = std::move(P);
  const FuncDecl &F = Moved.Funcs[0];
  EXPECT_EQ(Moved.name(F.Name), "add_one");
  EXPECT_EQ(Moved.name(F.Params[0].Name), "some_long_parameter_name");
  const Stmt &MS = *F.Body->Stmts[0];
  EXPECT_EQ(namesOf(Moved, MS.Vars),
            (std::vector<std::string_view>{"some_long_parameter_name"}));
  EXPECT_EQ(F.Body->Stmts[1]->E->L->Name, F.Params[0].Name);
  EXPECT_EQ(F.Body->Stmts[1]->Line, 3u);
}

bool lowerOk(const std::string &Src, ir::Module &M) {
  std::vector<std::string> Errors;
  bool OK = compileMiniC(Src, M, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return OK;
}

TEST(Lowering, ProducesVerifiedModule) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("int add(int a, int b) { return a + b; }\n"
                      "int twice(int x) { return add(x, x); }",
                      M));
  EXPECT_EQ(M.numFunctions(), 2u);
  EXPECT_EQ(ir::verifyModule(M), "");
}

TEST(Lowering, TypeChecksImplicitConversions) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("double f(int a, double b) { return a + b; }", M));
  std::vector<std::string> Errors;
  ir::Module M2;
  // double -> int assignment without a cast must be rejected.
  EXPECT_FALSE(compileMiniC("int f(double x) { int y = x; return y; }", M2,
                            Errors));
  EXPECT_FALSE(Errors.empty());
}

TEST(Lowering, RejectsUndeclaredAndArity) {
  std::vector<std::string> Errors;
  ir::Module M;
  EXPECT_FALSE(compileMiniC("int f() { return g(1); }", M, Errors));
  Errors.clear();
  EXPECT_FALSE(compileMiniC("int g(int a) { return a; }\n"
                            "int f() { return g(1, 2); }",
                            M, Errors));
  Errors.clear();
  EXPECT_FALSE(compileMiniC("int f() { return zzz; }", M, Errors));
}

TEST(Lowering, ScopesShadowAndExpire) {
  ir::Module M;
  ASSERT_TRUE(lowerOk(
      "int f(int x) { { int y = x + 1; x = y; } { int y = x * 2; x = y; } "
      "return x; }",
      M));
  std::vector<std::string> Errors;
  ir::Module M2;
  EXPECT_FALSE(compileMiniC(
      "int f(int x) { { int y = 1; } return y; }", M2, Errors));
}

TEST(Lowering, LeavingAScopeRestoresTheShadowedBinding) {
  // The inner x shadows the parameter (register 0) until its block ends,
  // through a for-header scope and a same-named sibling.
  ir::Module M;
  ASSERT_TRUE(lowerOk("int f(int x) {\n"
                      "  { int x = 7; { int x = 8; } x = x + 1; }\n"
                      "  for (int x = 0; x < 2; x++) { }\n"
                      "  return x;\n"
                      "}",
                      M));
  const ir::Function &F = M.function(0);
  const ir::Instruction &Ret = F.block(F.numBlocks() - 1).terminator();
  ASSERT_EQ(Ret.Op, ir::Opcode::Ret);
  EXPECT_EQ(Ret.Src1, 0u);
  EXPECT_EQ(F.regName(0), "x");
}

TEST(Lowering, AnnotationsBecomeIR) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("int f(int* a, int n) {\n"
                      "  make_static(a, n : cache_one);\n"
                      "  make_dynamic(n);\n"
                      "  return a[0];\n"
                      "}",
                      M));
  const ir::Function &F = M.function(0);
  unsigned NumStatic = 0, NumDynamic = 0;
  for (const ir::BasicBlock &B : F.Blocks)
    for (const ir::Instruction &I : B.Instrs) {
      if (I.Op == ir::Opcode::MakeStatic) {
        ++NumStatic;
        EXPECT_EQ(I.Policy, ir::CachePolicy::CacheOne);
        EXPECT_EQ(I.AnnotVars.size(), 2u);
      }
      if (I.Op == ir::Opcode::MakeDynamic)
        ++NumDynamic;
    }
  EXPECT_EQ(NumStatic, 1u);
  EXPECT_EQ(NumDynamic, 1u);
}

TEST(Lowering, BreakAndContinue) {
  ir::Module M;
  ASSERT_TRUE(lowerOk(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (i == 7) { break; }\n"
      "    if (i % 2 == 0) { continue; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  while (1) { break; }\n"
      "  return s;\n"
      "}",
      M));
  EXPECT_EQ(ir::verifyModule(M), "");
  std::vector<std::string> Errors;
  ir::Module M2;
  EXPECT_FALSE(
      compileMiniC("int f() { break; return 0; }", M2, Errors));
}

TEST(Lowering, PureFlagPropagatesToCalls) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("pure int sq(int x) { return x * x; }\n"
                      "int f(int a) { return sq(a); }",
                      M));
  EXPECT_TRUE(M.function(M.findFunction("sq")).Pure);
  bool SawStaticCall = false;
  const ir::Function &F = M.function(M.findFunction("f"));
  for (const ir::BasicBlock &B : F.Blocks)
    for (const ir::Instruction &I : B.Instrs)
      if (I.Op == ir::Opcode::Call)
        SawStaticCall = I.StaticCall;
  EXPECT_TRUE(SawStaticCall);
}

/// Every diagnostic the lexer, parser and lowering can give, each with the
/// exact Errors vector compileMiniC returns.
struct BadProgram {
  const char *Source;
  std::vector<std::string> Errors;
};

/// \p S repeated \p N times.
std::string repeated(const std::string &S, size_t N) {
  std::string R;
  R.reserve(S.size() * N);
  for (size_t I = 0; I != N; ++I)
    R += S;
  return R;
}

/// A return value nested one level past MaxNestingDepth: the return
/// statement, its operand and 999 parenthesized operands.
const std::string NestedTooDeep = "int f() { return " + repeated("(", 999) +
                                  "1" + repeated(")", 999) + "; }";

const BadProgram BadPrograms[] = {
  {"int f() { return 1; }\n/* never closed\n\n",
   {"line 4: unterminated comment"}},
  {"int f() { int x$ = 1; return x; }",
   {"line 1: unexpected character '$'"}},
  {"int f(int a) { return a @ 1; }",
   {"line 1: unexpected character '@'",
    "line 1: expected ';', found integer literal"}},
  {"int f() { int x = 1 # return x; }",
   {"line 1: unexpected character '#'",
    "line 1: expected ';', found 'return'"}},
  {"int f( { return; }",
   {"line 1: expected a type",
    "line 1: expected identifier, found '{'",
    "line 1: expected ')', found '{'"}},
  {"int f() { int; }",
   {"line 1: expected identifier, found ';'"}},
  {"extern double cos(double) int f() { return 0; }",
   {"line 1: expected ';', found 'int'"}},
  {"int f(x) { return x; }",
   {"line 1: expected a type"}},
  {"int () { return 0; }",
   {"line 1: expected identifier, found '('",
    "line 1: expected a type",
    "line 1: expected identifier, found '('",
    "line 1: expected a type",
    "line 1: expected identifier, found ')'",
    "line 1: expected a type",
    "line 1: expected identifier, found '{'",
    "line 1: expected a type",
    "line 1: expected identifier, found 'return'",
    "line 1: expected a type",
    "line 1: expected identifier, found integer literal",
    "line 1: expected a type",
    "line 1: expected identifier, found ';'",
    "line 1: expected a type",
    "line 1: expected identifier, found '}'"}},
  {"f",
   {"line 1: expected a type",
    "line 1: expected '(', found end of file",
    "line 1: expected a type",
    "line 1: expected identifier, found end of file",
    "line 1: expected ')', found end of file",
    "line 1: expected '{', found end of file",
    "line 1: expected '}', found end of file"}},
  {"int f() { 1 = 2; return 0; }",
   {"line 1: assignment target must be a variable or an element",
    "line 1: expected ';', found integer literal"}},
  {"int f() { int x = 0; (x + 1)++; return x; }",
   {"line 1: ++/-- applies only to variables"}},
  {"void f(int a) { make_static(a : cache_some); }",
   {"line 1: expected a cache policy after ':'",
    "line 1: expected ')', found identifier",
    "line 1: expected ';', found identifier",
    "line 1: expected ';', found ')'",
    "line 1: expected an expression, found ')'",
    "line 1: expected ';', found ')'"}},
  {"int f() { return * 2; }",
   {"line 1: expected an expression, found '*'"}},
  {"int f() { return 1 }",
   {"line 1: expected ';', found '}'"}},
  {"int f(int a) { make_static(); return a; }",
   {"line 1: expected identifier, found ')'"}},
  {"int f(int a) { int b; int b; return a; }",
   {"line 1: in 'f': redeclaration of 'b'"}},
  {"int f(int a, int a) { return a; }",
   {"line 1: in 'f': redeclaration of 'a'"}},
  {"double g(double x) { return x; }\ndouble f(int* p) { return g(p); }",
   {"line 2: in 'f': cannot convert int* to double"}},
  {"extern double sin(double);\ndouble f(int* p) { return sin(p); }",
   {"line 2: in 'f': cannot convert int* to double"}},
  {"int f() { return zzz; }",
   {"line 1: in 'f': use of undeclared variable 'zzz'"}},
  {"int f(int* p) { return -p; }",
   {"line 1: in 'f': negation of a pointer"}},
  {"int f(double d) { return !d; }",
   {"line 1: in 'f': '!' requires an int operand"}},
  {"int f(int a) { return a[0]; }",
   {"line 1: in 'f': indexing a non-pointer"}},
  {"int f(int* p, double d) { return p[d]; }",
   {"line 1: in 'f': index must be an int"}},
  {"double f(int* p) { return (double) p; }",
   {"line 1: in 'f': cannot cast a pointer to double",
    "line 1: in 'f': cannot assign int* to double"}},
  {"int f(double d) { return d % 2; }",
   {"line 1: in 'f': operator requires integer operands"}},
  {"int f(double d) { return d && 1; }",
   {"line 1: in 'f': logical operator requires integer operands"}},
  {"int f(int* p, int* q) { return p + q; }",
   {"line 1: in 'f': invalid pointer arithmetic"}},
  {"int f() { return g(1); }",
   {"line 1: in 'f': call to undeclared function 'g'"}},
  {"int g(int a) { return a; }\nint f() { return g(1, 2); }",
   {"line 2: in 'f': wrong number of arguments to 'g'"}},
  {"extern double sin(double);\ndouble f() { return sin(1.0, 2.0); }",
   {"line 2: in 'f': wrong number of arguments to 'sin'"}},
  {"int g(int a) { return a; }\nint f(double d) { return g(d); }",
   {"line 2: in 'f': double argument passed to int parameter"}},
  {"int f() { x = 1; return 0; }",
   {"line 1: in 'f': assignment to undeclared variable 'x'"}},
  {"int f(int a) { a[0] = 1; return a; }",
   {"line 1: in 'f': indexed assignment to a non-pointer"}},
  {"int f(int* p, double d) { p[d] = 1; return 0; }",
   {"line 1: in 'f': index must be an int"}},
  {"int f(double d) { if (d) { return 1; } return 0; }",
   {"line 1: in 'f': if-condition must be an int"}},
  {"int f(double d) { while (d) { d = d - 1.0; } return 0; }",
   {"line 1: in 'f': while-condition must be an int"}},
  {"int f(double d) { int i; for (i = 0; d; i++) { } return 0; }",
   {"line 1: in 'f': for-condition must be an int"}},
  {"void f() { return 1; }",
   {"line 1: in 'f': void function returns a value"}},
  {"int f() { return; }",
   {"line 1: in 'f': non-void function returns nothing"}},
  {"int f() { break; return 0; }",
   {"line 1: in 'f': break outside a loop"}},
  {"int f() { continue; return 0; }",
   {"line 1: in 'f': continue outside a loop"}},
  {"void f(int a) { make_static(a, b); }",
   {"line 1: in 'f': annotation names undeclared variable 'b'"}},
  {"int f(double x) { int y = x; return y; }",
   {"line 1: in 'f': cannot assign double to int"}},
  {"int* f(double x) { return x; }",
   {"line 1: in 'f': cannot assign double to int*"}},
  {"void g() { }\nint h(int a) { return a; }\nint f() { return h(g()); }",
   {"line 3: in 'f': value of void function 'g' used"}},
  {"void g() { }\nint f() { if (g()) { return 1; } return 0; }",
   {"line 2: in 'f': value of void function 'g' used"}},
  {"void g() { }\nint f() { return g() + 1; }",
   {"line 2: in 'f': value of void function 'g' used"}},
  {"int f() { return 1; }\nint f() { return 2; }",
   {"line 2: redefinition of function 'f'"}},
  {"int g() { return u; }\nint h() { return v; }",
   {"line 1: in 'g': use of undeclared variable 'u'",
    "line 2: in 'h': use of undeclared variable 'v'"}},
  {"int f(int x) { { int y = 1; } return y; }",
   {"line 1: in 'f': use of undeclared variable 'y'"}},
  {"int f() { for (int i = 0; i < 3; i++) { } return i; }",
   {"line 1: in 'f': use of undeclared variable 'i'"}},
  {"int f() { int a_very_long_variable_name = 1; return a_very_long_variable_nam; }",
   {"line 1: in 'f': use of undeclared variable 'a_very_long_variable_nam'"}},
  {"int f(int n) {\n  int s = 0;\n  while (n > 0) {\n    s = s + q;\n    n = n - 1;\n  }\n  return s;\n}",
   {"line 4: in 'f': use of undeclared variable 'q'"}},
  {NestedTooDeep.c_str(), {"line 1: nesting deeper than 1000 levels"}},
};

/// Programs nested far past MaxNestingDepth, each of which overflowed the
/// stack in the parser or in lowering before the bound: each now gets the
/// one nesting error.
TEST(Diagnostics, DeepProgramsGetOneError) {
  const std::string Probes[] = {
      "int f(int x) { return " + repeated("(", 50000) + "x" +
          repeated(")", 50000) + "; }",
      "int f(int x) { " + repeated("if (x) { ", 30000) +
          repeated("} ", 30000) + "return x; }",
      "int f(int x) { return x" + repeated(" + x", 19999) + "; }",
      "int f(int x) { return " + repeated("- ", 50000) + "x; }",
  };
  for (const std::string &Src : Probes) {
    ir::Module M;
    std::vector<std::string> Errors;
    EXPECT_FALSE(compileMiniC(Src, M, Errors)) << Src.substr(0, 40);
    EXPECT_EQ(Errors, std::vector<std::string>{
                          "line 1: nesting deeper than 1000 levels"})
        << Src.substr(0, 40);
  }
  // Within the bound, the same shapes compile.
  ir::Module M;
  std::vector<std::string> Errors;
  EXPECT_TRUE(compileMiniC("int f(int x) { return x" +
                               repeated(" + x", 900) + "; }",
                           M, Errors));
}

TEST(Diagnostics, ExactErrorsForEveryMessage) {
  for (const BadProgram &B : BadPrograms) {
    ir::Module M;
    std::vector<std::string> Errors;
    EXPECT_FALSE(compileMiniC(B.Source, M, Errors)) << B.Source;
    EXPECT_EQ(Errors, B.Errors) << B.Source;
  }
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

/// FNV-1a of printModule's text for each program as compiled by the front
/// end alone (no optimization), recorded before the front end moved to
/// flat storage; the text must not move by a byte.
struct ModuleDigest {
  const char *Name;
  uint64_t Digest;
};

const ModuleDigest Table3Digests[] = {
  {"dinero", 0xde9fc81c724707f9ull},
  {"m88ksim", 0x1aef92e700745b5aull},
  {"mipsi", 0x7b561686fa9d6af2ull},
  {"pnmconvol", 0xc4805f73ee7e89f5ull},
  {"viewperf:project&clip", 0xcde1c3ecbbc7f453ull},
  {"viewperf:shade", 0xcde1c3ecbbc7f453ull},
  {"binary", 0xf36b03999d8cdb0full},
  {"chebyshev", 0x1c817fb942d5b9aaull},
  {"dotproduct", 0xdb7b7ab999997f4cull},
  {"query", 0x9d06e8b5e96b500full},
  {"romberg", 0xe19a429b8a34fbf5ull},
};

const ModuleDigest ExampleDigests[] = {
  {"bytecode_vm.minic", 0x567a460649162f14ull},
  {"fir.minic", 0x96e656f444939441ull},
  {"grep.minic", 0xcfd8eaeacd6b58c4ull},
  {"power.minic", 0x447920bac756141aull},
  {"unannotated_hotspot.minic", 0xbea0fe6c2844f713ull},
};

std::string moduleText(const std::string &Source) {
  ir::Module M;
  std::vector<std::string> Errors;
  EXPECT_TRUE(compileMiniC(Source, M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  return ir::printModule(M);
}

TEST(ModuleText, Table3ProgramsAreByteIdentical) {
  for (const ModuleDigest &D : Table3Digests) {
    const workloads::Workload &W = workloads::workloadByName(D.Name);
    EXPECT_EQ(fnv1a(moduleText(W.Source)), D.Digest) << D.Name;
  }
}

TEST(ModuleText, ExampleProgramsAreByteIdentical) {
  for (const ModuleDigest &D : ExampleDigests) {
    std::ifstream In(std::string(DYC_SOURCE_DIR "/examples/minic/") + D.Name);
    ASSERT_TRUE(In.good()) << D.Name;
    std::stringstream Src;
    Src << In.rdbuf();
    EXPECT_EQ(fnv1a(moduleText(Src.str())), D.Digest) << D.Name;
  }
}

} // namespace
