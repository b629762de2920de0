//===- runtime/Emitter.cpp - Resolved-instruction encoder --------------------------===//

#include "runtime/Emitter.h"

#include "ir/ConstEval.h"

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

void Emitter::emitRaw(v::Instr I) {
  if (Buf.Code.size() >= MaxInstrs)
    ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
  Buf.Code.push_back(I);
  ++Stats.InstructionsGenerated;
  charge(CM.SpecEmit);
}

void Emitter::emitConst(uint32_t Dst, Word C, ir::Type Ty) {
  charge(CM.SpecEmitHole);
  if (Ty == ir::Type::F64)
    emitRaw({v::Op::ConstF, Dst, 0, 0, static_cast<int64_t>(C.Bits)});
  else
    emitRaw({v::Op::ConstI, Dst, 0, 0, C.asInt()});
}

uint32_t Emitter::regOf(const RVal &A, ir::Type Ty, uint32_t Scratch) {
  if (!A.IsConst)
    return A.R;
  emitConst(Scratch, A.C, Ty);
  return Scratch;
}

void Emitter::emitResolved(Opcode Op, ir::Type Ty, uint32_t Dst,
                           const RVal &A, const RVal &B, int64_t Imm) {
  switch (Op) {
  case Opcode::ConstI:
  case Opcode::ConstF:
    emitConst(Dst, Word{static_cast<uint64_t>(Imm)}, Ty);
    return;
  case Opcode::Mov:
    if (A.IsConst) {
      emitConst(Dst, A.C, Ty);
    } else if (A.R != Dst) {
      emitRaw({Ty == ir::Type::F64 ? v::Op::FMov : v::Op::Mov, Dst, A.R});
    }
    return;
  case Opcode::Neg:
  case Opcode::FNeg:
  case Opcode::IToF:
  case Opcode::FToI: {
    if (A.IsConst) {
      Word Out;
      if (ir::evalPureOp(Op, A.C, Word(), Out)) {
        emitConst(Dst, Out, Ty);
        return;
      }
    }
    emitRaw({vmOpOf(Op), Dst,
             regOf(A, Ty == ir::Type::F64 && Op != Opcode::FToI
                          ? ir::Type::F64
                          : ir::Type::I64,
                   GX.Scratch0)});
    return;
  }
  case Opcode::Load:
    if (A.IsConst) {
      charge(CM.SpecEmitHole);
      emitRaw({v::Op::LoadAbs, Dst, 0, 0, wrapAdd(A.C.asInt(), Imm)});
    } else {
      emitRaw({v::Op::Load, Dst, A.R, 0, Imm});
    }
    return;
  case Opcode::Store: {
    // A = address, B = value.
    uint32_t ValReg = regOf(B, ir::Type::I64, GX.Scratch0);
    if (A.IsConst) {
      charge(CM.SpecEmitHole);
      emitRaw({v::Op::StoreAbs, ValReg, 0, 0, wrapAdd(A.C.asInt(), Imm)});
    } else {
      emitRaw({v::Op::Store, ValReg, A.R, 0, Imm});
    }
    return;
  }
  default:
    break;
  }

  // Binary arithmetic / comparison.
  if (A.IsConst && B.IsConst) {
    Word Out;
    if (ir::evalPureOp(Op, A.C, B.C, Out)) {
      emitConst(Dst, Out, Ty);
      return;
    }
    // Unfoldable (division by zero): emit faithfully so the fault
    // happens at run time, as it would have in static code.
    uint32_t RA = regOf(A, ir::Type::I64, GX.Scratch0);
    uint32_t RB = regOf(B, ir::Type::I64, GX.Scratch1);
    emitRaw({vmOpOf(Op), Dst, RA, RB});
    return;
  }
  if (!A.IsConst && B.IsConst) {
    v::Op IF = immFormOf(Op);
    if (IF != v::Op::Halt) {
      charge(CM.SpecEmitHole);
      emitRaw({IF, Dst, A.R, 0, static_cast<int64_t>(B.C.Bits)});
      return;
    }
    bool FloatOperand = Op == Opcode::FCmpEq || Op == Opcode::FCmpNe ||
                        Op == Opcode::FCmpLt || Op == Opcode::FCmpLe ||
                        Op == Opcode::FCmpGt || Op == Opcode::FCmpGe;
    uint32_t RB = regOf(B, FloatOperand ? ir::Type::F64 : ir::Type::I64,
                        GX.Scratch1);
    emitRaw({vmOpOf(Op), Dst, A.R, RB});
    return;
  }
  if (A.IsConst && !B.IsConst) {
    if (isCommutativeOpcode(Op)) {
      emitResolved(Op, Ty, Dst, B, A, Imm);
      return;
    }
    Opcode Mirrored = mirrorCompare(Op);
    if (Mirrored != Op) {
      emitResolved(Mirrored, Ty, Dst, B, A, Imm);
      return;
    }
    bool FloatOperand = Op == Opcode::FSub || Op == Opcode::FDiv;
    uint32_t RA = regOf(A, FloatOperand ? ir::Type::F64 : ir::Type::I64,
                        GX.Scratch0);
    emitRaw({vmOpOf(Op), Dst, RA, B.R});
    return;
  }
  emitRaw({vmOpOf(Op), Dst, A.R, B.R});
}

} // namespace runtime
} // namespace dyc
