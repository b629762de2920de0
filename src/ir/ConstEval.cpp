//===- ir/ConstEval.cpp -----------------------------------------------------------===//

#include "ir/ConstEval.h"

namespace dyc {
namespace ir {

bool isEvaluableOp(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
  case Opcode::Rem: case Opcode::And: case Opcode::Or: case Opcode::Xor:
  case Opcode::Shl: case Opcode::Shr: case Opcode::Neg:
  case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
  case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
  case Opcode::IToF: case Opcode::FToI:
    return true;
  default:
    return false;
  }
}

bool evalPureOp(Opcode Op, Word A, Word B, Word &Out) {
  switch (Op) {
  case Opcode::Mov: Out = A; return true;
  case Opcode::Add: Out = Word::fromInt(wrapAdd(A.asInt(), B.asInt())); return true;
  case Opcode::Sub: Out = Word::fromInt(wrapSub(A.asInt(), B.asInt())); return true;
  case Opcode::Mul: Out = Word::fromInt(wrapMul(A.asInt(), B.asInt())); return true;
  case Opcode::Div:
    if (B.asInt() == 0)
      return false;
    Out = Word::fromInt(wrapDiv(A.asInt(), B.asInt()));
    return true;
  case Opcode::Rem:
    if (B.asInt() == 0)
      return false;
    Out = Word::fromInt(wrapRem(A.asInt(), B.asInt()));
    return true;
  case Opcode::And: Out = Word::fromInt(A.asInt() & B.asInt()); return true;
  case Opcode::Or:  Out = Word::fromInt(A.asInt() | B.asInt()); return true;
  case Opcode::Xor: Out = Word::fromInt(A.asInt() ^ B.asInt()); return true;
  case Opcode::Shl:
    Out = Word::fromInt(A.asInt() << (B.asInt() & 63));
    return true;
  case Opcode::Shr:
    Out = Word::fromInt(A.asInt() >> (B.asInt() & 63));
    return true;
  case Opcode::Neg: Out = Word::fromInt(wrapNeg(A.asInt())); return true;
  case Opcode::FAdd:
    Out = Word::fromFloat(A.asFloat() + B.asFloat());
    return true;
  case Opcode::FSub:
    Out = Word::fromFloat(A.asFloat() - B.asFloat());
    return true;
  case Opcode::FMul:
    Out = Word::fromFloat(A.asFloat() * B.asFloat());
    return true;
  case Opcode::FDiv:
    Out = Word::fromFloat(A.asFloat() / B.asFloat());
    return true;
  case Opcode::FNeg: Out = Word::fromFloat(-A.asFloat()); return true;
  case Opcode::CmpEq: Out = Word::fromInt(A.asInt() == B.asInt()); return true;
  case Opcode::CmpNe: Out = Word::fromInt(A.asInt() != B.asInt()); return true;
  case Opcode::CmpLt: Out = Word::fromInt(A.asInt() <  B.asInt()); return true;
  case Opcode::CmpLe: Out = Word::fromInt(A.asInt() <= B.asInt()); return true;
  case Opcode::CmpGt: Out = Word::fromInt(A.asInt() >  B.asInt()); return true;
  case Opcode::CmpGe: Out = Word::fromInt(A.asInt() >= B.asInt()); return true;
  case Opcode::FCmpEq: Out = Word::fromInt(A.asFloat() == B.asFloat()); return true;
  case Opcode::FCmpNe: Out = Word::fromInt(A.asFloat() != B.asFloat()); return true;
  case Opcode::FCmpLt: Out = Word::fromInt(A.asFloat() <  B.asFloat()); return true;
  case Opcode::FCmpLe: Out = Word::fromInt(A.asFloat() <= B.asFloat()); return true;
  case Opcode::FCmpGt: Out = Word::fromInt(A.asFloat() >  B.asFloat()); return true;
  case Opcode::FCmpGe: Out = Word::fromInt(A.asFloat() >= B.asFloat()); return true;
  case Opcode::IToF:
    Out = Word::fromFloat(static_cast<double>(A.asInt()));
    return true;
  case Opcode::FToI:
    Out = Word::fromInt(wrapFToI(A.asFloat()));
    return true;
  default:
    return false;
  }
}

} // namespace ir
} // namespace dyc
