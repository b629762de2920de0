//===- ir/Verifier.cpp - IR structural checks ---------------------------------===//

#include "ir/Module.h"

namespace dyc {
namespace ir {

namespace {

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

  /// The type of operand \p R; Void for NoReg or an out-of-range register
  /// (a void call's missing value), which no typed operand accepts.
  Type tyOf(Reg R) const { return regOk(R) ? F.regType(R) : Type::Void; }

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
      if (tyOf(I.Src1) != I.Ty)
        return fail(B, Idx, "mov type mismatch");
      break;
    case Opcode::Load:
      if (tyOf(I.Src1) != Type::I64)
        return fail(B, Idx, "load address must be i64");
      break;
    case Opcode::Store:
      if (tyOf(I.Src1) != Type::I64)
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
      if (tyOf(I.Src1) != Type::I64)
        return fail(B, Idx, "condbr condition must be i64");
      break;
    case Opcode::Ret:
      if (F.RetTy == Type::Void) {
        if (I.Src1 != NoReg)
          return fail(B, Idx, "void function returns a value");
      } else {
        if (I.Src1 == NoReg || tyOf(I.Src1) != F.RetTy)
          return fail(B, Idx, "return value type mismatch");
      }
      break;
    case Opcode::MakeStatic:
    case Opcode::MakeDynamic:
      for (Reg R : I.AnnotVars)
        if (!regOk(R))
          return fail(B, Idx, "annotation names out-of-range register");
      break;
    default: {
      // The op table's pure operations, typed by its columns.
      const OpcodeInfo &Info = opcodeInfo(I.Op);
      if (Info.Unary) {
        if (I.Ty != Info.ResultTy || tyOf(I.Src1) != Info.OperandTy)
          return fail(B, Idx,
                      Info.OperandTy == Info.ResultTy
                          ? formatString("%s must be %s", Info.Name,
                                         typeName(Info.ResultTy))
                          : formatString("%s types", Info.Name));
      } else if (Info.Pure) {
        if (tyOf(I.Src1) != Info.OperandTy || tyOf(I.Src2) != Info.OperandTy)
          return fail(B, Idx, Info.OperandTy == Type::F64
                                  ? "floating operands expected"
                                  : "integer operands expected");
        if (Info.Compare && I.Ty != Type::I64)
          return fail(B, Idx, "compare must produce i64");
      }
      break;
    }
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
