//===- runtime/Emitter.cpp - Encoding tables, concrete domain ----------------------===//

#include "runtime/Emitter.h"

namespace dyc {
namespace runtime {

using ir::Opcode;
namespace v = vm;

v::Op vmOpOf(Opcode Op) {
  switch (Op) {
  case Opcode::Add: return v::Op::Add;
  case Opcode::Sub: return v::Op::Sub;
  case Opcode::Mul: return v::Op::Mul;
  case Opcode::Div: return v::Op::Div;
  case Opcode::Rem: return v::Op::Rem;
  case Opcode::And: return v::Op::And;
  case Opcode::Or: return v::Op::Or;
  case Opcode::Xor: return v::Op::Xor;
  case Opcode::Shl: return v::Op::Shl;
  case Opcode::Shr: return v::Op::Shr;
  case Opcode::Neg: return v::Op::Neg;
  case Opcode::FAdd: return v::Op::FAdd;
  case Opcode::FSub: return v::Op::FSub;
  case Opcode::FMul: return v::Op::FMul;
  case Opcode::FDiv: return v::Op::FDiv;
  case Opcode::FNeg: return v::Op::FNeg;
  case Opcode::CmpEq: return v::Op::CmpEq;
  case Opcode::CmpNe: return v::Op::CmpNe;
  case Opcode::CmpLt: return v::Op::CmpLt;
  case Opcode::CmpLe: return v::Op::CmpLe;
  case Opcode::CmpGt: return v::Op::CmpGt;
  case Opcode::CmpGe: return v::Op::CmpGe;
  case Opcode::FCmpEq: return v::Op::FCmpEq;
  case Opcode::FCmpNe: return v::Op::FCmpNe;
  case Opcode::FCmpLt: return v::Op::FCmpLt;
  case Opcode::FCmpLe: return v::Op::FCmpLe;
  case Opcode::FCmpGt: return v::Op::FCmpGt;
  case Opcode::FCmpGe: return v::Op::FCmpGe;
  case Opcode::IToF: return v::Op::IToF;
  case Opcode::FToI: return v::Op::FToI;
  default:
    fatal("opcode has no reg-reg VM form in the emitter");
  }
}

v::Op immFormOf(Opcode Op) {
  switch (Op) {
  case Opcode::Add: return v::Op::AddI;
  case Opcode::Sub: return v::Op::SubI;
  case Opcode::Mul: return v::Op::MulI;
  case Opcode::Div: return v::Op::DivI;
  case Opcode::Rem: return v::Op::RemI;
  case Opcode::And: return v::Op::AndI;
  case Opcode::Or: return v::Op::OrI;
  case Opcode::Xor: return v::Op::XorI;
  case Opcode::Shl: return v::Op::ShlI;
  case Opcode::Shr: return v::Op::ShrI;
  case Opcode::CmpEq: return v::Op::CmpEqI;
  case Opcode::CmpNe: return v::Op::CmpNeI;
  case Opcode::CmpLt: return v::Op::CmpLtI;
  case Opcode::CmpLe: return v::Op::CmpLeI;
  case Opcode::CmpGt: return v::Op::CmpGtI;
  case Opcode::CmpGe: return v::Op::CmpGeI;
  case Opcode::FAdd: return v::Op::FAddI;
  case Opcode::FSub: return v::Op::FSubI;
  case Opcode::FMul: return v::Op::FMulI;
  case Opcode::FDiv: return v::Op::FDivI;
  default: return v::Op::Halt;
  }
}

bool isCommutativeOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add: case Opcode::Mul: case Opcode::And: case Opcode::Or:
  case Opcode::Xor: case Opcode::FAdd: case Opcode::FMul:
  case Opcode::CmpEq: case Opcode::CmpNe:
    return true;
  default:
    return false;
  }
}

Opcode mirrorCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpLt: return Opcode::CmpGt;
  case Opcode::CmpLe: return Opcode::CmpGe;
  case Opcode::CmpGt: return Opcode::CmpLt;
  case Opcode::CmpGe: return Opcode::CmpLe;
  default: return Op;
  }
}

bool isUnaryOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Mov: case Opcode::Neg: case Opcode::FNeg:
  case Opcode::IToF: case Opcode::FToI:
    return true;
  default:
    return false;
  }
}

void Concrete::emit(v::Instr I) {
  if (Buf.Code.size() >= MaxInstrs)
    ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
  Buf.Code.push_back(I);
  ++Stats.InstructionsGenerated;
  charge(Charge::Emit);
}

} // namespace runtime
} // namespace dyc
