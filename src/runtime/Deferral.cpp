//===- runtime/Deferral.cpp - Staged deferral and the emit semantics --------------===//

#include "runtime/Deferral.h"

namespace dyc {
namespace runtime {

using ir::Opcode;

void DeferralEngine::materializeEntry(size_t Idx) {
  Entry &En = Entries[Idx];
  if (!En.Pending)
    return;
  En.Pending = false;
  if (Link *L = latest(En.Dst); L && L->Idx == Idx)
    eraseLatest(L);
  ++Stats.MaterializedDeferred;
  forceOperand(En.A);
  forceOperand(En.B);
  emitResolved(En.Op, En.Ty, En.Dst, En.A, En.B, En.Imm);
}

RVal DeferralEngine::readResolve(uint32_t Reg) {
  uint32_t Cur = Reg;
  while (true) {
    const Link *L = latest(Cur);
    if (!L)
      return RVal::reg(Cur);
    const Entry &En = Entries[L->Idx];
    E.charge(CM.SpecZcpTableOp);
    if (En.Op == Opcode::Mov) {
      if (En.A.IsConst)
        return En.A;
      Cur = En.A.R;
      continue;
    }
    if (En.Op == Opcode::ConstI || En.Op == Opcode::ConstF)
      return RVal::cst(En.Imm);
    return RVal::reg(Cur, static_cast<int32_t>(L->Idx));
  }
}

void DeferralEngine::writeEvent(uint32_t Dst) {
  if (Dst == vm::NoReg)
    return;
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &En = Entries[I];
    if (En.Pending &&
        ((!En.A.IsConst && En.A.R == Dst) || (!En.B.IsConst && En.B.R == Dst)))
      materializeEntry(I);
  }
  if (Link *L = latest(Dst)) {
    Entry &En = Entries[L->Idx];
    if (En.Pending) {
      En.Pending = false;
      ++Stats.DeadAssignsEliminated;
      E.charge(CM.SpecZcpTableOp);
    }
    eraseLatest(L);
  }
}

void DeferralEngine::deferOrEmit(const cogen::SetupOp &Op, Opcode FormOp,
                                 ir::Type Ty, uint32_t Dst, const RVal &A,
                                 const RVal &B, Word Imm) {
  writeEvent(Dst);
  if (Op.Deferrable) {
    E.charge(CM.SpecZcpTableOp);
    Entry En;
    En.Op = FormOp;
    En.Ty = Ty;
    En.Dst = Dst;
    En.A = A;
    En.B = B;
    En.Imm = Imm;
    Entries.push_back(En);
    // writeEvent above dropped any earlier definition of Dst.
    Latest.push_back({Dst, static_cast<uint32_t>(Entries.size() - 1)});
    return;
  }
  forceOperand(A);
  forceOperand(B);
  emitResolved(FormOp, Ty, Dst, A, B, Imm);
}

void DeferralEngine::emitDynamic(const cogen::SetupOp &Op,
                                 const std::vector<Word> &Vals) {
  if (Op.Op == Opcode::Call || Op.Op == Opcode::CallExt) {
    std::vector<RVal> Args;
    Args.reserve(Op.Args.size());
    for (const cogen::Operand &A : Op.Args)
      Args.push_back(resolveOperand(A, Vals));
    memoryClobber();
    writeEvent(Op.Dst);
    for (size_t I = 0; I != Args.size(); ++I) {
      uint32_t Stage = GX.StageBase + static_cast<uint32_t>(I);
      ir::Type ArgTy = GX.RegTypes[Op.Args[I].R];
      forceOperand(Args[I]);
      emitResolved(Opcode::Mov, ArgTy, Stage, Args[I], RVal(), Word());
    }
    E.emit({Op.Op == Opcode::Call ? vm::Op::Call : vm::Op::CallExt,
            Op.Dst == ir::NoReg ? vm::NoReg : Op.Dst, GX.StageBase,
            static_cast<uint32_t>(Args.size()), Op.Callee});
    return;
  }

  RVal A = resolveOperand(Op.A, Vals);
  RVal B = resolveOperand(Op.B, Vals);

  // A move that resolves to its own destination (copy propagation came
  // full circle) is a no-op: the register already holds the value.
  if (Op.Op == Opcode::Mov && !A.IsConst && A.R == Op.Dst)
    return;

  if (Op.Op == Opcode::Store) {
    memoryClobber();
    forceOperand(A);
    forceOperand(B);
    emitResolved(Opcode::Store, ir::Type::I64, vm::NoReg, A, B,
                 Word::fromInt(Op.Imm));
    return;
  }

  // Dynamic constant folding: propagation can turn both operands into
  // constants. The fold fails only where the op's fault condition holds.
  if (ir::isEvaluableOp(Op.Op) && A.IsConst &&
      (ir::isUnaryOp(Op.Op) || B.IsConst)) {
    Word Out;
    if (ir::evalPureOp(Op.Op, A.C, B.C, Out)) {
      E.charge(CM.SpecEvalOp);
      deferOrEmit(Op,
                  Op.Ty == ir::Type::F64 ? Opcode::ConstF : Opcode::ConstI,
                  Op.Ty, Op.Dst, RVal(), RVal(), Out);
      return;
    }
  }

  // Staged zero/copy propagation (section 2.2.7): a special value of
  // the single constant operand reduces the operation to a move or a
  // clear.
  bool OneConst = A.IsConst != B.IsConst;
  if (Flags.ZeroCopyPropagation && OneConst) {
    E.charge(CM.SpecZcpTableOp);
    const RVal &CS = A.IsConst ? A : B;
    const RVal &DS = A.IsConst ? B : A;
    bool ConstOnRight = B.IsConst;
    bool IsFloat = Op.Ty == ir::Type::F64;
    Word One = IsFloat ? Word::fromFloat(1.0) : Word::fromInt(1);
    Word Zero = IsFloat ? Word::fromFloat(0.0) : Word::fromInt(0);
    bool ToMove = false, ToClear = false;
    switch (Op.Op) {
    case Opcode::Mul:
    case Opcode::FMul:
      ToMove = CS.C.Bits == One.Bits;
      ToClear = !ToMove && CS.C.Bits == Zero.Bits;
      break;
    case Opcode::Add:
    case Opcode::FAdd:
      ToMove = CS.C.Bits == Zero.Bits;
      break;
    case Opcode::Sub:
    case Opcode::FSub:
      ToMove = ConstOnRight && CS.C.Bits == Zero.Bits;
      break;
    case Opcode::Div:
    case Opcode::FDiv:
      ToMove = ConstOnRight && CS.C.Bits == One.Bits;
      break;
    default:
      break;
    }
    if (ToMove) {
      ++Stats.ZcpApplied;
      deferOrEmit(Op, Opcode::Mov, Op.Ty, Op.Dst, DS, RVal(), Word());
      return;
    }
    if (ToClear) {
      ++Stats.ZcpApplied;
      deferOrEmit(Op, IsFloat ? Opcode::ConstF : Opcode::ConstI, Op.Ty,
                  Op.Dst, RVal(), RVal(), Zero);
      return;
    }
  }

  // Strength reduction (section 2.2.7): integer multiply by a power of
  // two, or divide/remainder by one on the right, become shifts and masks.
  if (Flags.StrengthReduction && OneConst &&
      (Op.Op == Opcode::Mul || Op.Op == Opcode::Div ||
       Op.Op == Opcode::Rem)) {
    E.charge(CM.SpecStrengthCheck);
    const RVal &CS = A.IsConst ? A : B;
    const RVal &DS = A.IsConst ? B : A;
    const int64_t C = CS.C.asInt();
    if ((Op.Op == Opcode::Mul || B.IsConst) && isPowerOf2(C) && C >= 2) {
      ++Stats.StrengthReduced;
      Word K = Word::fromInt(log2OfPow2(C));
      if (Op.Op == Opcode::Mul) {
        deferOrEmit(Op, Opcode::Shl, Op.Ty, Op.Dst, DS, RVal::cst(K), Word());
        return;
      }
      // Exact shift sequence (C truncates toward zero, so negative
      // dividends need the bias fixup) — the same code an optimizing
      // static compiler emits for constant power-of-two divisors.
      forceOperand(DS);
      writeEvent(Op.Dst);
      uint32_t X = DS.R;
      uint32_t S0 = GX.Scratch0;
      E.emit({vm::Op::ShrI, S0, X, 0, 63});
      E.emitImm({vm::Op::AndI, S0, S0}, CS.C, -1); // C - 1
      E.emit({vm::Op::Add, S0, X, S0});
      if (Op.Op == Opcode::Div) {
        E.emitImm({vm::Op::ShrI, Op.Dst, S0}, K, 0);
      } else {
        E.emitImm({vm::Op::ShrI, S0, S0}, K, 0);
        E.emitImm({vm::Op::ShlI, S0, S0}, K, 0);
        E.emit({vm::Op::Sub, Op.Dst, X, S0});
      }
      return;
    }
  }

  deferOrEmit(Op, Op.Op, Op.Ty, Op.Dst, A, B, Word::fromInt(Op.Imm));
}

void DeferralEngine::emitResolved(Opcode Op, ir::Type Ty, uint32_t Dst,
                                  const RVal &A, const RVal &B, Word Imm) {
  switch (Op) {
  case Opcode::ConstI:
  case Opcode::ConstF:
    emitConst(Dst, Imm, Ty);
    return;
  case Opcode::Mov:
    if (A.IsConst)
      emitConst(Dst, A.C, Ty);
    else if (A.R != Dst)
      E.emit({Ty == ir::Type::F64 ? vm::Op::FMov : vm::Op::Mov, Dst, A.R});
    return;
  case Opcode::Load:
    if (A.IsConst) {
      E.charge(CM.SpecEmitHole);
      E.emitImm({vm::Op::LoadAbs, Dst}, A.C, Imm.asInt());
    } else {
      E.emit({vm::Op::Load, Dst, A.R, 0, Imm.asInt()});
    }
    return;
  case Opcode::Store: {
    // A = address, B = value.
    uint32_t ValReg = regOf(B, ir::Type::I64, GX.Scratch0);
    if (A.IsConst) {
      E.charge(CM.SpecEmitHole);
      E.emitImm({vm::Op::StoreAbs, ValReg}, A.C, Imm.asInt());
    } else {
      E.emit({vm::Op::Store, ValReg, A.R, 0, Imm.asInt()});
    }
    return;
  }
  default:
    break;
  }

  const ir::OpcodeInfo &Info = ir::opcodeInfo(Op);
  if (Info.Unary) {
    if (!A.IsConst) {
      E.emit({cogen::vmOpOf(Op), Dst, A.R});
      return;
    }
    // No unary operation has a fault condition, so a constant folds.
    Word Out;
    [[maybe_unused]] bool Folded = ir::evalPureOp(Op, A.C, Word(), Out);
    assert(Folded && "unary fold failed");
    emitConst(Dst, Out, Ty);
    return;
  }

  // Binary arithmetic / comparison.
  if (A.IsConst && B.IsConst) {
    Word Out;
    if (ir::evalPureOp(Op, A.C, B.C, Out)) {
      emitConst(Dst, Out, Ty);
      return;
    }
    // Unfoldable (the operation's fault condition holds): emit faithfully
    // so the fault happens at run time, as it would have in static code.
    uint32_t RA = regOf(A, Info.OperandTy, GX.Scratch0);
    uint32_t RB = regOf(B, Info.OperandTy, GX.Scratch1);
    E.emit({cogen::vmOpOf(Op), Dst, RA, RB});
    return;
  }
  if (!A.IsConst && B.IsConst) {
    vm::Op IF = cogen::immFormOf(Op);
    if (IF != vm::Op::Halt) {
      E.charge(CM.SpecEmitHole);
      E.emitImm({IF, Dst, A.R}, B.C, 0);
      return;
    }
    uint32_t RB = regOf(B, Info.OperandTy, GX.Scratch1);
    E.emit({cogen::vmOpOf(Op), Dst, A.R, RB});
    return;
  }
  if (A.IsConst && !B.IsConst) {
    if (cogen::isCommutativeOpcode(Op)) {
      emitResolved(Op, Ty, Dst, B, A, Imm);
      return;
    }
    Opcode Mirrored = cogen::mirrorCompare(Op);
    if (Mirrored != Op) {
      emitResolved(Mirrored, Ty, Dst, B, A, Imm);
      return;
    }
    uint32_t RA = regOf(A, Info.OperandTy, GX.Scratch0);
    E.emit({cogen::vmOpOf(Op), Dst, RA, B.R});
    return;
  }
  E.emit({cogen::vmOpOf(Op), Dst, A.R, B.R});
}

} // namespace runtime
} // namespace dyc
