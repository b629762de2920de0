//===- ir/Instruction.cpp ---------------------------------------------------===//

#include "ir/Instruction.h"

namespace dyc {
namespace ir {

const char *typeName(Type T) {
  switch (T) {
  case Type::Void: return "void";
  case Type::I64: return "i64";
  case Type::F64: return "f64";
  }
  return "<bad-type>";
}

const char *cachePolicyName(CachePolicy P) {
  switch (P) {
  case CachePolicy::CacheAll: return "cache_all";
  case CachePolicy::CacheOne: return "cache_one";
  case CachePolicy::CacheOneUnchecked: return "cache_one_unchecked";
  case CachePolicy::CacheIndexed: return "cache_indexed";
  }
  return "<bad-policy>";
}

std::string Instruction::toString() const {
  std::string S;
  auto R = [](Reg X) {
    return X == NoReg ? std::string("r?") : formatString("r%u", X);
  };
  switch (Op) {
  case Opcode::ConstI:
    return formatString("%s = consti %lld", R(Dst).c_str(), (long long)Imm);
  case Opcode::ConstF:
    return formatString("%s = constf %g", R(Dst).c_str(),
                        Word{(uint64_t)Imm}.asFloat());
  case Opcode::Load:
    return formatString("%s = load%s [%s + %lld]", R(Dst).c_str(),
                        StaticLoad ? "@" : "", R(Src1).c_str(),
                        (long long)Imm);
  case Opcode::Store:
    return formatString("store [%s + %lld], %s", R(Src1).c_str(),
                        (long long)Imm, R(Src2).c_str());
  case Opcode::Call:
  case Opcode::CallExt: {
    S = formatString("%s = %s%s %s%d(", R(Dst).c_str(),
                     StaticCall ? "static " : "", opcodeName(Op),
                     Op == Opcode::Call ? "fn" : "ext", Callee);
    for (size_t I = 0; I != Args.size(); ++I)
      S += (I ? ", " : "") + R(Args[I]);
    return S + ")";
  }
  case Opcode::Br:
    return formatString("br bb%u", TrueSucc);
  case Opcode::CondBr:
    return formatString("condbr %s, bb%u, bb%u", R(Src1).c_str(), TrueSucc,
                        FalseSucc);
  case Opcode::Ret:
    return Src1 == NoReg ? "ret" : formatString("ret %s", R(Src1).c_str());
  case Opcode::MakeStatic:
  case Opcode::MakeDynamic: {
    S = opcodeName(Op);
    S += "(";
    for (size_t I = 0; I != AnnotVars.size(); ++I)
      S += (I ? ", " : "") + R(AnnotVars[I]);
    S += ")";
    if (Op == Opcode::MakeStatic)
      S += formatString(" : %s", cachePolicyName(Policy));
    return S;
  }
  default:
    if (isUnaryOp(Op))
      return formatString("%s = %s %s", R(Dst).c_str(), opcodeName(Op),
                          R(Src1).c_str());
    return formatString("%s = %s %s, %s", R(Dst).c_str(), opcodeName(Op),
                        R(Src1).c_str(), R(Src2).c_str());
  }
}

Instruction makeBinary(Opcode Op, Type Ty, Reg Dst, Reg A, Reg B) {
  Instruction I;
  I.Op = Op;
  I.Ty = Ty;
  I.Dst = Dst;
  I.Src1 = A;
  I.Src2 = B;
  return I;
}

Instruction makeUnary(Opcode Op, Type Ty, Reg Dst, Reg A) {
  Instruction I;
  I.Op = Op;
  I.Ty = Ty;
  I.Dst = Dst;
  I.Src1 = A;
  return I;
}

} // namespace ir
} // namespace dyc
