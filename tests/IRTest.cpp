//===- tests/IRTest.cpp - IR construction/verifier/printer unit tests -------------===//

#include "ir/ConstEval.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace dyc;
using namespace dyc::ir;

namespace {

TEST(IRBuilderTest, BuildsVerifiedFunction) {
  Module M;
  Function F;
  F.Name = "f";
  F.RetTy = Type::I64;
  Reg A = F.newReg(Type::I64, "a");
  F.NumParams = 1;
  F.newBlock("entry");
  IRBuilder B(F);
  Reg C = B.constI(5);
  Reg S = B.binary(Opcode::Add, A, C, "s");
  B.ret(S);
  int Idx = M.addFunction(std::move(F));
  EXPECT_EQ(verifyFunction(M.function(Idx), M), "");
}

TEST(IRBuilderTest, TypedRegistersAndNames) {
  Function F;
  F.Name = "t";
  Reg I = F.newReg(Type::I64, "count");
  Reg D = F.newReg(Type::F64);
  EXPECT_EQ(F.regType(I), Type::I64);
  EXPECT_EQ(F.regType(D), Type::F64);
  EXPECT_EQ(F.regName(I), "count");
  EXPECT_FALSE(F.regName(D).empty()); // generated name
}

TEST(VerifierTest, CatchesMissingTerminator) {
  Module M;
  Function F;
  F.Name = "bad";
  F.RetTy = Type::Void;
  Reg R = F.newReg(Type::I64);
  F.newBlock();
  Instruction C;
  C.Op = Opcode::ConstI;
  C.Ty = Type::I64;
  C.Dst = R;
  F.block(0).Instrs.push_back(C);
  int Idx = M.addFunction(std::move(F));
  EXPECT_NE(verifyFunction(M.function(Idx), M), "");
}

TEST(VerifierTest, CatchesTypeMismatches) {
  Module M;
  Function F;
  F.Name = "bad2";
  F.RetTy = Type::I64;
  Reg D = F.newReg(Type::F64);
  Reg I = F.newReg(Type::I64);
  F.newBlock();
  // fadd with an integer operand
  Instruction A = makeBinary(Opcode::FAdd, Type::F64, D, I, I);
  F.block(0).Instrs.push_back(A);
  Instruction R;
  R.Op = Opcode::Ret;
  R.Src1 = I;
  F.block(0).Instrs.push_back(R);
  int Idx = M.addFunction(std::move(F));
  EXPECT_NE(verifyFunction(M.function(Idx), M), "");
}

// The verifier's type classes come from the op table; their messages are
// the ones the hand-written classes gave. A missing operand (NoReg where a
// value is needed, as a void call leaves) is a type error, not a read out
// of range.
TEST(VerifierTest, TypeClassMessagesAndMissingOperands) {
  auto Verify = [](Instruction I) {
    Module M;
    Function F;
    F.Name = "f";
    F.RetTy = Type::Void;
    F.newReg(Type::I64); // r0
    F.newReg(Type::F64); // r1
    F.newReg(Type::I64); // r2
    F.newReg(Type::F64); // r3
    F.newBlock();
    F.newBlock();
    F.block(0).Instrs.push_back(I);
    if (!I.isTerminator()) {
      Instruction R;
      R.Op = Opcode::Ret;
      F.block(0).Instrs.push_back(R);
    }
    Instruction R;
    R.Op = Opcode::Ret;
    F.block(1).Instrs.push_back(R);
    int Idx = M.addFunction(std::move(F));
    return verifyFunction(M.function(Idx), M);
  };
  EXPECT_EQ(Verify(makeBinary(Opcode::Add, Type::I64, 2, 0, 1)),
            "f: bb0[0]: integer operands expected");
  EXPECT_EQ(Verify(makeBinary(Opcode::FMul, Type::F64, 3, 1, 0)),
            "f: bb0[0]: floating operands expected");
  EXPECT_EQ(Verify(makeBinary(Opcode::FCmpLt, Type::F64, 3, 1, 1)),
            "f: bb0[0]: compare must produce i64");
  EXPECT_EQ(Verify(makeUnary(Opcode::Neg, Type::I64, 2, 1)),
            "f: bb0[0]: neg must be i64");
  EXPECT_EQ(Verify(makeUnary(Opcode::FNeg, Type::F64, 3, 0)),
            "f: bb0[0]: fneg must be f64");
  EXPECT_EQ(Verify(makeUnary(Opcode::IToF, Type::F64, 3, 1)),
            "f: bb0[0]: itof types");
  EXPECT_EQ(Verify(makeUnary(Opcode::FToI, Type::I64, 2, 0)),
            "f: bb0[0]: ftoi types");
  EXPECT_EQ(Verify(makeBinary(Opcode::Sub, Type::I64, 2, 0, 2)), "");
  EXPECT_EQ(Verify(makeBinary(Opcode::Add, Type::I64, 2, 0, NoReg)),
            "f: bb0[0]: integer operands expected");
  Instruction C;
  C.Op = Opcode::CondBr;
  C.Src1 = NoReg;
  C.TrueSucc = 1;
  C.FalseSucc = 1;
  EXPECT_EQ(Verify(C), "f: bb0[0]: condbr condition must be i64");
}

TEST(VerifierTest, CatchesBadBranchTargets) {
  Module M;
  Function F;
  F.Name = "bad3";
  F.RetTy = Type::Void;
  F.newBlock();
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.TrueSucc = 99;
  F.block(0).Instrs.push_back(Br);
  int Idx = M.addFunction(std::move(F));
  EXPECT_NE(verifyFunction(M.function(Idx), M), "");
}

TEST(VerifierTest, CatchesStaticCallToImpureExternal) {
  Module M;
  M.declareExternal({"rand", 0, /*Pure=*/false, Type::F64});
  Function F;
  F.Name = "bad4";
  F.RetTy = Type::Void;
  Reg D = F.newReg(Type::F64);
  F.newBlock();
  Instruction C;
  C.Op = Opcode::CallExt;
  C.Ty = Type::F64;
  C.Dst = D;
  C.Callee = 0;
  C.StaticCall = true; // illegal on an impure external
  F.block(0).Instrs.push_back(C);
  Instruction R;
  R.Op = Opcode::Ret;
  F.block(0).Instrs.push_back(R);
  int Idx = M.addFunction(std::move(F));
  EXPECT_NE(verifyFunction(M.function(Idx), M), "");
}

TEST(InstructionTest, UsesAndDefs) {
  Instruction I = makeBinary(Opcode::Add, Type::I64, 5, 1, 2);
  std::vector<Reg> Uses;
  I.appendUses(Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{1, 2}));
  EXPECT_TRUE(I.definesReg());
  EXPECT_FALSE(I.isTerminator());

  Instruction S;
  S.Op = Opcode::Store;
  S.Src1 = 3;
  S.Src2 = 4;
  Uses.clear();
  S.appendUses(Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{3, 4}));
  EXPECT_FALSE(S.definesReg());

  Instruction MS;
  MS.Op = Opcode::MakeStatic;
  MS.AnnotVars = {7, 8};
  Uses.clear();
  MS.appendUses(Uses); // promotions read the annotated variables
  EXPECT_EQ(Uses, (std::vector<Reg>{7, 8}));
}

TEST(PrinterTest, RendersInstructions) {
  Instruction I = makeBinary(Opcode::FMul, Type::F64, 2, 0, 1);
  EXPECT_EQ(I.toString(), "r2 = fmul r0, r1");
  Instruction L;
  L.Op = Opcode::Load;
  L.Ty = Type::F64;
  L.Dst = 1;
  L.Src1 = 0;
  L.StaticLoad = true;
  EXPECT_EQ(L.toString(), "r1 = load@ [r0 + 0]");
  Instruction MS;
  MS.Op = Opcode::MakeStatic;
  MS.AnnotVars = {3};
  MS.Policy = CachePolicy::CacheOneUnchecked;
  EXPECT_EQ(MS.toString(), "make_static(r3) : cache_one_unchecked");
}

TEST(ConstEvalTest, MatchesCppSemantics) {
  Word Out;
  ASSERT_TRUE(evalPureOp(Opcode::Div, Word::fromInt(-7), Word::fromInt(2),
                         Out));
  EXPECT_EQ(Out.asInt(), -3); // C truncation toward zero
  ASSERT_TRUE(evalPureOp(Opcode::Rem, Word::fromInt(-7), Word::fromInt(2),
                         Out));
  EXPECT_EQ(Out.asInt(), -1);
  EXPECT_FALSE(evalPureOp(Opcode::Div, Word::fromInt(1), Word::fromInt(0),
                          Out));
  ASSERT_TRUE(evalPureOp(Opcode::FToI, Word::fromFloat(-2.9), Word(), Out));
  EXPECT_EQ(Out.asInt(), -2);
  ASSERT_TRUE(evalPureOp(Opcode::Shl, Word::fromInt(1), Word::fromInt(66),
                         Out));
  EXPECT_EQ(Out.asInt(), 4); // shift amounts mask to 6 bits, as in the VM
  // Where C++ signed arithmetic would overflow, guest integers wrap.
  const Word Min = Word::fromInt(INT64_MIN), Max = Word::fromInt(INT64_MAX);
  const Word MinusOne = Word::fromInt(-1);
  ASSERT_TRUE(evalPureOp(Opcode::Div, Min, MinusOne, Out));
  EXPECT_EQ(Out.asInt(), INT64_MIN);
  ASSERT_TRUE(evalPureOp(Opcode::Rem, Min, MinusOne, Out));
  EXPECT_EQ(Out.asInt(), 0);
  ASSERT_TRUE(evalPureOp(Opcode::Add, Max, Word::fromInt(1), Out));
  EXPECT_EQ(Out.asInt(), INT64_MIN);
  ASSERT_TRUE(evalPureOp(Opcode::Sub, Min, Word::fromInt(1), Out));
  EXPECT_EQ(Out.asInt(), INT64_MAX);
  ASSERT_TRUE(evalPureOp(Opcode::Mul, Max, Word::fromInt(2), Out));
  EXPECT_EQ(Out.asInt(), -2);
  ASSERT_TRUE(evalPureOp(Opcode::Neg, Min, Word(), Out));
  EXPECT_EQ(Out.asInt(), INT64_MIN);
  // Float-to-int conversion of NaN or an out-of-range value, undefined as
  // a C++ cast, gives INT64_MIN; -2^63 converts exactly.
  for (double F : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e20, -1e20, 0x1p63}) {
    ASSERT_TRUE(evalPureOp(Opcode::FToI, Word::fromFloat(F), Word(), Out));
    EXPECT_EQ(Out.asInt(), INT64_MIN) << F;
  }
  ASSERT_TRUE(evalPureOp(Opcode::FToI, Word::fromFloat(-0x1p63), Word(), Out));
  EXPECT_EQ(Out.asInt(), INT64_MIN);
  ASSERT_TRUE(
      evalPureOp(Opcode::FToI, Word::fromFloat(0x1p62), Word(), Out));
  EXPECT_EQ(Out.asInt(), INT64_C(1) << 62);

  // One worked result per pure operation, written out by hand rather than
  // taken from the op table whose value expressions they check.
  struct Case {
    Opcode Op;
    Word A, B, Want;
  };
  auto I = [](int64_t V) { return Word::fromInt(V); };
  auto F = [](double V) { return Word::fromFloat(V); };
  const double NaN = std::nan("");
  const Case Cases[] = {
      {Opcode::Add, I(7), I(-3), I(4)},
      {Opcode::Sub, I(7), I(10), I(-3)},
      {Opcode::Mul, I(-7), I(6), I(-42)},
      {Opcode::Div, I(7), I(-2), I(-3)},
      {Opcode::Rem, I(7), I(-2), I(1)},
      {Opcode::And, I(12), I(10), I(8)},
      {Opcode::Or, I(12), I(10), I(14)},
      {Opcode::Xor, I(12), I(10), I(6)},
      {Opcode::Shl, I(3), I(4), I(48)},
      {Opcode::Shr, I(-64), I(3), I(-8)}, // arithmetic shift
      {Opcode::Neg, I(5), Word(), I(-5)},
      {Opcode::FAdd, F(1.5), F(2.25), F(3.75)},
      {Opcode::FSub, F(1.5), F(2.25), F(-0.75)},
      {Opcode::FMul, F(1.5), F(-4.0), F(-6.0)},
      {Opcode::FDiv, F(1.0), F(4.0), F(0.25)},
      {Opcode::FDiv, F(1.0), F(0.0), F(HUGE_VAL)}, // a value, not a fault
      {Opcode::FNeg, F(2.5), Word(), F(-2.5)},
      {Opcode::CmpEq, I(3), I(3), I(1)},
      {Opcode::CmpNe, I(3), I(3), I(0)},
      {Opcode::CmpLt, I(-1), I(0), I(1)},
      {Opcode::CmpLe, I(1), I(0), I(0)},
      {Opcode::CmpGt, I(1), I(0), I(1)},
      {Opcode::CmpGe, I(-1), I(0), I(0)},
      {Opcode::FCmpEq, F(0.5), F(0.5), I(1)},
      {Opcode::FCmpEq, F(NaN), F(NaN), I(0)},
      {Opcode::FCmpNe, F(0.5), F(0.5), I(0)},
      {Opcode::FCmpNe, F(NaN), F(NaN), I(1)},
      {Opcode::FCmpLt, F(-0.5), F(0.5), I(1)},
      {Opcode::FCmpLe, F(0.75), F(0.5), I(0)},
      {Opcode::FCmpGt, F(0.75), F(0.5), I(1)},
      {Opcode::FCmpGe, F(0.25), F(0.5), I(0)},
      {Opcode::IToF, I(-3), Word(), F(-3.0)},
      {Opcode::FToI, F(2.9), Word(), I(2)},
  };
  std::set<Opcode> Covered;
  for (const Case &C : Cases) {
    ASSERT_TRUE(evalPureOp(C.Op, C.A, C.B, Out)) << opcodeName(C.Op);
    EXPECT_EQ(Out.Bits, C.Want.Bits) << opcodeName(C.Op);
    Covered.insert(C.Op);
  }
  // Every evaluable opcode but Mov is one of the 30 pure operations.
  for (unsigned K = 0; K <= static_cast<unsigned>(Opcode::MakeDynamic); ++K) {
    Opcode Op = static_cast<Opcode>(K);
    if (isEvaluableOp(Op) && Op != Opcode::Mov) {
      EXPECT_TRUE(Covered.count(Op)) << opcodeName(Op) << " has no case";
    }
  }
  EXPECT_EQ(Covered.size(), 30u);
}

TEST(ModuleTest, LookupAndDuplicates) {
  Module M;
  Function F;
  F.Name = "alpha";
  F.RetTy = Type::Void;
  F.newBlock();
  Instruction R;
  R.Op = Opcode::Ret;
  F.block(0).Instrs.push_back(R);
  M.addFunction(std::move(F));
  EXPECT_EQ(M.findFunction("alpha"), 0);
  EXPECT_EQ(M.findFunction("beta"), -1);
  M.declareExternal({"cos", 1, true, Type::F64});
  EXPECT_EQ(M.findExternal("cos"), 0);
  EXPECT_EQ(M.findExternal("sin"), -1);
}

} // namespace
