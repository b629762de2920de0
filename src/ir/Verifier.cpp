//===- ir/Verifier.cpp - IR structural checks ---------------------------------===//

#include "ir/Module.h"

namespace dyc {
namespace ir {

namespace {

/// Expected operand/result typing per opcode.
bool isIntBinary(Opcode Op) {
  switch (Op) {
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
  case Opcode::Rem: case Opcode::And: case Opcode::Or: case Opcode::Xor:
  case Opcode::Shl: case Opcode::Shr:
  case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
  case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

bool isFloatBinary(Opcode Op) {
  switch (Op) {
  case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
    return true;
  default:
    return false;
  }
}

bool isCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
  case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
    return true;
  default:
    return false;
  }
}

struct Checker {
  const Function &F;
  const Module &M;
  std::string Err;

  bool fail(size_t B, size_t I, const std::string &Msg) {
    Err = formatString("%s: bb%zu[%zu]: %s", F.Name.c_str(), B, I,
                       Msg.c_str());
    return false;
  }

  bool regOk(Reg R) const { return R < F.numRegs(); }

  bool checkInstr(size_t B, size_t Idx, const Instruction &I) {
    bool UsesOk = true;
    I.forEachUse([&](Reg U) { UsesOk &= regOk(U); });
    if (!UsesOk)
      return fail(B, Idx, "use of out-of-range register");
    if (I.Dst != NoReg && !regOk(I.Dst))
      return fail(B, Idx, "out-of-range destination register");
    if (I.Dst != NoReg && I.Ty == Type::Void)
      return fail(B, Idx, "destination with void result type");
    if (I.Dst != NoReg && F.regType(I.Dst) != I.Ty)
      return fail(B, Idx, "destination register type mismatch");

    switch (I.Op) {
    case Opcode::ConstI:
      if (I.Ty != Type::I64)
        return fail(B, Idx, "consti must produce i64");
      break;
    case Opcode::ConstF:
      if (I.Ty != Type::F64)
        return fail(B, Idx, "constf must produce f64");
      break;
    case Opcode::Mov:
      if (F.regType(I.Src1) != I.Ty)
        return fail(B, Idx, "mov type mismatch");
      break;
    case Opcode::Neg:
      if (I.Ty != Type::I64 || F.regType(I.Src1) != Type::I64)
        return fail(B, Idx, "neg must be i64");
      break;
    case Opcode::FNeg:
      if (I.Ty != Type::F64 || F.regType(I.Src1) != Type::F64)
        return fail(B, Idx, "fneg must be f64");
      break;
    case Opcode::IToF:
      if (I.Ty != Type::F64 || F.regType(I.Src1) != Type::I64)
        return fail(B, Idx, "itof types");
      break;
    case Opcode::FToI:
      if (I.Ty != Type::I64 || F.regType(I.Src1) != Type::F64)
        return fail(B, Idx, "ftoi types");
      break;
    case Opcode::Load:
      if (F.regType(I.Src1) != Type::I64)
        return fail(B, Idx, "load address must be i64");
      break;
    case Opcode::Store:
      if (F.regType(I.Src1) != Type::I64)
        return fail(B, Idx, "store address must be i64");
      if (!regOk(I.Src2))
        return fail(B, Idx, "store value register out of range");
      break;
    case Opcode::Call: {
      if (I.Callee < 0 ||
          static_cast<size_t>(I.Callee) >= M.numFunctions())
        return fail(B, Idx, "call to out-of-range function");
      const Function &Callee = M.function(I.Callee);
      if (I.Args.size() != Callee.NumParams)
        return fail(B, Idx, "call arity mismatch");
      if (I.Dst != NoReg && Callee.RetTy != I.Ty)
        return fail(B, Idx, "call result type mismatch");
      break;
    }
    case Opcode::CallExt: {
      if (I.Callee < 0 ||
          static_cast<size_t>(I.Callee) >= M.numExternals())
        return fail(B, Idx, "call to out-of-range external");
      const ExternalDecl &D = M.external(I.Callee);
      if (I.Args.size() != D.NumArgs)
        return fail(B, Idx, "external call arity mismatch");
      if (I.StaticCall && !D.Pure)
        return fail(B, Idx, "static call to impure external");
      break;
    }
    case Opcode::Br:
      if (I.TrueSucc >= F.numBlocks())
        return fail(B, Idx, "branch to out-of-range block");
      break;
    case Opcode::CondBr:
      if (I.TrueSucc >= F.numBlocks() || I.FalseSucc >= F.numBlocks())
        return fail(B, Idx, "condbr to out-of-range block");
      if (F.regType(I.Src1) != Type::I64)
        return fail(B, Idx, "condbr condition must be i64");
      break;
    case Opcode::Ret:
      if (F.RetTy == Type::Void) {
        if (I.Src1 != NoReg)
          return fail(B, Idx, "void function returns a value");
      } else {
        if (I.Src1 == NoReg || F.regType(I.Src1) != F.RetTy)
          return fail(B, Idx, "return value type mismatch");
      }
      break;
    case Opcode::MakeStatic:
    case Opcode::MakeDynamic:
      for (Reg R : I.AnnotVars)
        if (!regOk(R))
          return fail(B, Idx, "annotation names out-of-range register");
      break;
    default:
      if (isIntBinary(I.Op)) {
        if (F.regType(I.Src1) != Type::I64 ||
            F.regType(I.Src2) != Type::I64)
          return fail(B, Idx, "integer operands expected");
      } else if (isFloatBinary(I.Op)) {
        if (F.regType(I.Src1) != Type::F64 ||
            F.regType(I.Src2) != Type::F64)
          return fail(B, Idx, "floating operands expected");
      }
      if (isCompare(I.Op) && I.Ty != Type::I64)
        return fail(B, Idx, "compare must produce i64");
      break;
    }
    return true;
  }

  bool run() {
    if (F.Blocks.empty()) {
      Err = F.Name + ": function has no blocks";
      return false;
    }
    if (F.NumParams > F.numRegs()) {
      Err = F.Name + ": more parameters than registers";
      return false;
    }
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const BasicBlock &BB = F.Blocks[B];
      if (BB.Instrs.empty())
        return fail(B, 0, "empty block");
      for (size_t I = 0; I != BB.Instrs.size(); ++I) {
        const Instruction &In = BB.Instrs[I];
        bool IsLast = I + 1 == BB.Instrs.size();
        if (In.isTerminator() != IsLast)
          return fail(B, I, IsLast ? "block does not end in a terminator"
                                   : "terminator in the middle of a block");
        if (!checkInstr(B, I, In))
          return false;
      }
    }
    return true;
  }
};

} // namespace

std::string verifyFunction(const Function &F, const Module &M) {
  Checker C{F, M, {}};
  C.run();
  return C.Err;
}

std::string verifyModule(const Module &M) {
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    std::string Err = verifyFunction(M.function(static_cast<int>(I)), M);
    if (!Err.empty())
      return Err;
  }
  return std::string();
}

} // namespace ir
} // namespace dyc
