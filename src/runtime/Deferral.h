//===- runtime/Deferral.h - Emit semantics, written once for both stages ---------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle layer of the specializer: staged zero/copy propagation and
/// dead-assignment elimination (paper section 2.2.7) over the
/// resolved-instruction encoder. Dynamic instructions whose results are
/// block-dead by the static plan are *deferred* into a table instead of
/// being emitted. Reads resolve through the table — pending moves are
/// chased (copy propagation), pending constants are returned as values
/// (zero propagation) — and a pending entry is only materialized if emitted
/// code actually consumes its result. An entry overwritten before any
/// consumer is dropped, never emitted: dead-assignment elimination at
/// specialize time.
///
/// emitDynamic() is the engine's front door: it resolves a planned
/// dynamic instruction's operands, applies dynamic constant folding, the
/// zero/copy rewrites, and power-of-two strength reduction, then defers or
/// emits the result; emitResolved() encodes one resolved instruction.
///
/// This is the only statement of those semantics. The engine is a
/// template over a value domain (runtime/Emitter.h): the Concrete domain
/// runs it at specialize time on real values, and the plan builder runs
/// the same code on symbolic values to compile an emit plan. Every value
/// test, fold, charge, statistic, immediate and emitted instruction goes
/// through the domain, so the two stages agree by construction.
///
/// The table is per specialized block: the unroll driver resets it at
/// every block boundary (deferrable results are block-dead by the plan).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_DEFERRAL_H
#define DYC_RUNTIME_DEFERRAL_H

#include "bta/OptFlags.h"
#include "runtime/Emitter.h"

#include <vector>

namespace dyc {
namespace runtime {

template <typename Dom> class DeferralEngineT {
public:
  using Value = typename Dom::Value;
  using Env = typename Dom::Env;
  using RV = Resolved<Value>;
  using Entry = DeferredEntry<Value>;
  using Link = typename DeferralTable<Value>::Link;

  DeferralEngineT(Dom &D, const OptFlags &Flags,
                  const cogen::GenExtFunction &GX)
      : D(D), Flags(Flags), GX(GX) {}

  /// The table. Public so the plan builder can snapshot it, save it as a
  /// guard arm's seed and restore it.
  DeferralTable<Value> T;

  /// Block boundary: forget pending entries without emitting (the caller
  /// uses dropAllPending() first when the drops must be counted).
  void reset() {
    T.Entries.clear();
    T.Latest.clear();
  }

  /// Resolves a run-time register through the deferral table.
  RV readResolve(uint32_t Reg);

  RV resolveOperand(const cogen::Operand &O, const Env &Vals) {
    if (O.R == ir::NoReg)
      return RV();
    if (O.Static)
      return RV::cst(Dom::staticValue(Vals, O.R));
    return readResolve(O.R);
  }

  /// If \p A references a still-pending deferred producer, emit it (and,
  /// recursively, its dependencies).
  void forceOperand(const RV &A) {
    if (A.Dep >= 0 && T.Entries[static_cast<size_t>(A.Dep)].Pending)
      materializeEntry(static_cast<size_t>(A.Dep));
  }

  /// Before an instruction writes \p Dst: pending readers of Dst must be
  /// materialized (they captured the old value's register); a pending
  /// producer of Dst is dead and is dropped — dead-assignment elimination.
  void writeEvent(uint32_t Dst);

  /// Memory is about to be written or a call made: pending loads must be
  /// emitted first.
  void memoryClobber() {
    for (size_t I = 0; I != T.Entries.size(); ++I)
      if (T.Entries[I].Pending && T.Entries[I].Op == ir::Opcode::Load)
        materializeEntry(I);
  }

  /// Drops every still-pending entry (block boundary; deferrable results
  /// are block-dead by the static plan).
  void dropAllPending() {
    for (Entry &E : T.Entries) {
      if (!E.Pending)
        continue;
      E.Pending = false;
      D.count(Stat::DeadAssignsEliminated);
    }
    T.Latest.clear();
  }

  /// Resolves, optimizes, and defers-or-emits one planned dynamic
  /// instruction (SetupOp::EmitInstr).
  void emitDynamic(const cogen::SetupOp &Op, const Env &Vals);

  /// One hole charge, then the constant instruction.
  void emitConst(uint32_t Dst, Value C, ir::Type Ty) {
    D.charge(Charge::EmitHole);
    D.emitImm({Ty == ir::Type::F64 ? vm::Op::ConstF : vm::Op::ConstI, Dst}, C,
              0);
  }

  /// Emits one resolved instruction (immediate packing, commutation,
  /// scratch materialization, folding of all-constant operands). Operands
  /// carrying a deferred-producer Dep must have been forced by the caller
  /// — emission never re-enters the deferral table.
  void emitResolved(ir::Opcode Op, ir::Type Ty, uint32_t Dst, const RV &A,
                    const RV &B, Value Imm);

  /// Reinstalls one pending entry (a plan Sync step replaying the state
  /// the compiled steps imply, into a table that holds nothing else; a
  /// Sync list has one pending entry per register). Pure bookkeeping: the
  /// charges and stats of the entry's creation were already replayed by
  /// the plan's Copy steps.
  void restore(const Entry &E) {
    T.Entries.push_back(E);
    T.Latest.push_back({E.Dst, static_cast<uint32_t>(T.Entries.size() - 1)});
  }

private:
  Link *latest(uint32_t Reg) {
    for (Link &L : T.Latest)
      if (L.Reg == Reg)
        return &L;
    return nullptr;
  }
  void eraseLatest(Link *L) {
    *L = T.Latest.back();
    T.Latest.pop_back();
  }

  /// Emits a pending entry now ("the move is materialized"), after any
  /// still-pending producers of its operands.
  void materializeEntry(size_t Idx);

  void deferOrEmit(const cogen::SetupOp &Op, ir::Opcode FormOp, ir::Type Ty,
                   uint32_t Dst, const RV &A, const RV &B, Value Imm);

  /// Ensures \p A is in a register, materializing a constant into
  /// \p Scratch; returns the register.
  uint32_t regOf(const RV &A, ir::Type Ty, uint32_t Scratch) {
    if (!A.IsConst)
      return A.R;
    emitConst(Scratch, A.C, Ty);
    return Scratch;
  }

  /// A table entry outlives the values it was resolved from.
  RV stable(RV A) {
    if (A.IsConst)
      A.C = D.stable(A.C);
    return A;
  }

  Dom &D;
  const OptFlags &Flags;
  const cogen::GenExtFunction &GX;
};

template <typename Dom>
void DeferralEngineT<Dom>::materializeEntry(size_t Idx) {
  Entry &E = T.Entries[Idx];
  if (!E.Pending)
    return;
  E.Pending = false;
  if (Link *L = latest(E.Dst); L && L->Idx == Idx)
    eraseLatest(L);
  D.count(Stat::MaterializedDeferred);
  forceOperand(E.A);
  forceOperand(E.B);
  emitResolved(E.Op, E.Ty, E.Dst, E.A, E.B, E.Imm);
}

template <typename Dom>
typename DeferralEngineT<Dom>::RV
DeferralEngineT<Dom>::readResolve(uint32_t Reg) {
  uint32_t Cur = Reg;
  while (true) {
    const Link *L = latest(Cur);
    if (!L)
      return RV::reg(Cur);
    const Entry &E = T.Entries[L->Idx];
    D.charge(Charge::TableOp);
    if (E.Op == ir::Opcode::Mov) {
      if (E.A.IsConst)
        return E.A;
      Cur = E.A.R;
      continue;
    }
    if (E.Op == ir::Opcode::ConstI || E.Op == ir::Opcode::ConstF)
      return RV::cst(E.Imm);
    return RV::reg(Cur, static_cast<int32_t>(L->Idx));
  }
}

template <typename Dom> void DeferralEngineT<Dom>::writeEvent(uint32_t Dst) {
  if (Dst == vm::NoReg)
    return;
  for (size_t I = 0; I != T.Entries.size(); ++I) {
    const Entry &E = T.Entries[I];
    if (E.Pending &&
        ((!E.A.IsConst && E.A.R == Dst) || (!E.B.IsConst && E.B.R == Dst)))
      materializeEntry(I);
  }
  if (Link *L = latest(Dst)) {
    Entry &E = T.Entries[L->Idx];
    if (E.Pending) {
      E.Pending = false;
      D.count(Stat::DeadAssignsEliminated);
      D.charge(Charge::TableOp);
    }
    eraseLatest(L);
  }
}

template <typename Dom>
void DeferralEngineT<Dom>::deferOrEmit(const cogen::SetupOp &Op,
                                       ir::Opcode FormOp, ir::Type Ty,
                                       uint32_t Dst, const RV &A, const RV &B,
                                       Value Imm) {
  writeEvent(Dst);
  if (Op.Deferrable) {
    D.charge(Charge::TableOp);
    Entry E;
    E.Op = FormOp;
    E.Ty = Ty;
    E.Dst = Dst;
    E.A = stable(A);
    E.B = stable(B);
    E.Imm = D.stable(Imm);
    T.Entries.push_back(E);
    // writeEvent above dropped any earlier definition of Dst.
    T.Latest.push_back({Dst, static_cast<uint32_t>(T.Entries.size() - 1)});
    return;
  }
  forceOperand(A);
  forceOperand(B);
  emitResolved(FormOp, Ty, Dst, A, B, Imm);
}

template <typename Dom>
void DeferralEngineT<Dom>::emitDynamic(const cogen::SetupOp &Op,
                                       const Env &Vals) {
  using ir::Opcode;
  if (Op.Op == Opcode::Call || Op.Op == Opcode::CallExt) {
    std::vector<RV> Args;
    Args.reserve(Op.Args.size());
    for (const cogen::Operand &A : Op.Args)
      Args.push_back(resolveOperand(A, Vals));
    memoryClobber();
    writeEvent(Op.Dst);
    for (size_t I = 0; I != Args.size(); ++I) {
      uint32_t Stage = GX.StageBase + static_cast<uint32_t>(I);
      ir::Type ArgTy = GX.RegTypes[Op.Args[I].R];
      forceOperand(Args[I]);
      emitResolved(Opcode::Mov, ArgTy, Stage, Args[I], RV(), Value());
    }
    D.emit({Op.Op == Opcode::Call ? vm::Op::Call : vm::Op::CallExt,
            Op.Dst == ir::NoReg ? vm::NoReg : Op.Dst, GX.StageBase,
            static_cast<uint32_t>(Args.size()), Op.Callee});
    return;
  }

  RV A = resolveOperand(Op.A, Vals);
  RV B = resolveOperand(Op.B, Vals);

  // A move that resolves to its own destination (copy propagation came
  // full circle) is a no-op: the register already holds the value.
  if (Op.Op == Opcode::Mov && !A.IsConst && A.R == Op.Dst)
    return;

  if (Op.Op == Opcode::Store) {
    memoryClobber();
    forceOperand(A);
    forceOperand(B);
    emitResolved(Opcode::Store, ir::Type::I64, vm::NoReg, A, B,
                 D.lit(Word::fromInt(Op.Imm)));
    return;
  }

  // Dynamic constant folding: propagation can turn both operands into
  // constants. The fold fails only where the op's fault condition holds.
  if (ir::isEvaluableOp(Op.Op) && A.IsConst &&
      (ir::isUnaryOp(Op.Op) || B.IsConst)) {
    Value Out;
    if (D.fold(Op.Op, A.C, B.C, Out)) {
      D.charge(Charge::EvalOp);
      deferOrEmit(Op,
                  Op.Ty == ir::Type::F64 ? Opcode::ConstF : Opcode::ConstI,
                  Op.Ty, Op.Dst, RV(), RV(), Out);
      return;
    }
  }

  // Staged zero/copy propagation (section 2.2.7): a special value of
  // the single constant operand reduces the operation to a move or a
  // clear.
  bool OneConst = A.IsConst != B.IsConst;
  if (Flags.ZeroCopyPropagation && OneConst) {
    D.charge(Charge::TableOp);
    const RV &CS = A.IsConst ? A : B;
    const RV &DS = A.IsConst ? B : A;
    bool ConstOnRight = B.IsConst;
    bool IsFloat = Op.Ty == ir::Type::F64;
    Word One = IsFloat ? Word::fromFloat(1.0) : Word::fromInt(1);
    Word Zero = IsFloat ? Word::fromFloat(0.0) : Word::fromInt(0);
    bool ToMove = false, ToClear = false;
    switch (Op.Op) {
    case Opcode::Mul:
    case Opcode::FMul:
      ToMove = D.eqBits(CS.C, One);
      ToClear = !ToMove && D.eqBits(CS.C, Zero);
      break;
    case Opcode::Add:
    case Opcode::FAdd:
      ToMove = D.eqBits(CS.C, Zero);
      break;
    case Opcode::Sub:
    case Opcode::FSub:
      ToMove = ConstOnRight && D.eqBits(CS.C, Zero);
      break;
    case Opcode::Div:
    case Opcode::FDiv:
      ToMove = ConstOnRight && D.eqBits(CS.C, One);
      break;
    default:
      break;
    }
    if (ToMove) {
      D.count(Stat::ZcpApplied);
      deferOrEmit(Op, Opcode::Mov, Op.Ty, Op.Dst, DS, RV(), Value());
      return;
    }
    if (ToClear) {
      D.count(Stat::ZcpApplied);
      deferOrEmit(Op, IsFloat ? Opcode::ConstF : Opcode::ConstI, Op.Ty,
                  Op.Dst, RV(), RV(), D.lit(Zero));
      return;
    }
  }

  // Strength reduction (section 2.2.7): integer multiply by a power of
  // two, or divide/remainder by one on the right, become shifts and masks.
  if (Flags.StrengthReduction && OneConst &&
      (Op.Op == Opcode::Mul || Op.Op == Opcode::Div ||
       Op.Op == Opcode::Rem)) {
    D.charge(Charge::StrengthCheck);
    const RV &CS = A.IsConst ? A : B;
    const RV &DS = A.IsConst ? B : A;
    if ((Op.Op == Opcode::Mul || B.IsConst) && D.pow2Ge2(CS.C)) {
      D.count(Stat::StrengthReduced);
      if (Op.Op == Opcode::Mul) {
        deferOrEmit(Op, Opcode::Shl, Op.Ty, Op.Dst, DS, RV::cst(D.log2(CS.C)),
                    Value());
        return;
      }
      // Exact shift sequence (C truncates toward zero, so negative
      // dividends need the bias fixup) — the same code an optimizing
      // static compiler emits for constant power-of-two divisors.
      forceOperand(DS);
      writeEvent(Op.Dst);
      Value K = D.log2(CS.C);
      uint32_t X = DS.R;
      uint32_t S0 = GX.Scratch0;
      D.emit({vm::Op::ShrI, S0, X, 0, 63});
      D.emitImm({vm::Op::AndI, S0, S0}, CS.C, -1); // C - 1
      D.emit({vm::Op::Add, S0, X, S0});
      if (Op.Op == Opcode::Div) {
        D.emitImm({vm::Op::ShrI, Op.Dst, S0}, K, 0);
      } else {
        D.emitImm({vm::Op::ShrI, S0, S0}, K, 0);
        D.emitImm({vm::Op::ShlI, S0, S0}, K, 0);
        D.emit({vm::Op::Sub, Op.Dst, X, S0});
      }
      return;
    }
  }

  deferOrEmit(Op, Op.Op, Op.Ty, Op.Dst, A, B, D.lit(Word::fromInt(Op.Imm)));
}

template <typename Dom>
void DeferralEngineT<Dom>::emitResolved(ir::Opcode Op, ir::Type Ty,
                                        uint32_t Dst, const RV &A,
                                        const RV &B, Value Imm) {
  using ir::Opcode;
  switch (Op) {
  case Opcode::ConstI:
  case Opcode::ConstF:
    emitConst(Dst, Imm, Ty);
    return;
  case Opcode::Mov:
    if (A.IsConst)
      emitConst(Dst, A.C, Ty);
    else if (A.R != Dst)
      D.emit({Ty == ir::Type::F64 ? vm::Op::FMov : vm::Op::Mov, Dst, A.R});
    return;
  case Opcode::Load:
    if (A.IsConst) {
      D.charge(Charge::EmitHole);
      D.emitImm({vm::Op::LoadAbs, Dst}, A.C, Dom::literal(Imm));
    } else {
      D.emit({vm::Op::Load, Dst, A.R, 0, Dom::literal(Imm)});
    }
    return;
  case Opcode::Store: {
    // A = address, B = value.
    uint32_t ValReg = regOf(B, ir::Type::I64, GX.Scratch0);
    if (A.IsConst) {
      D.charge(Charge::EmitHole);
      D.emitImm({vm::Op::StoreAbs, ValReg}, A.C, Dom::literal(Imm));
    } else {
      D.emit({vm::Op::Store, ValReg, A.R, 0, Dom::literal(Imm)});
    }
    return;
  }
  default:
    break;
  }

  const ir::OpcodeInfo &Info = ir::opcodeInfo(Op);
  if (Info.Unary) {
    if (!A.IsConst) {
      D.emit({cogen::vmOpOf(Op), Dst, A.R});
      return;
    }
    // No unary operation has a fault condition, so a constant folds.
    Value Out;
    [[maybe_unused]] bool Folded = D.fold(Op, A.C, Value(), Out);
    assert(Folded && "unary fold failed");
    emitConst(Dst, Out, Ty);
    return;
  }

  // Binary arithmetic / comparison.
  if (A.IsConst && B.IsConst) {
    Value Out;
    if (D.fold(Op, A.C, B.C, Out)) {
      emitConst(Dst, Out, Ty);
      return;
    }
    // Unfoldable (the operation's fault condition holds): emit faithfully
    // so the fault happens at run time, as it would have in static code.
    uint32_t RA = regOf(A, Info.OperandTy, GX.Scratch0);
    uint32_t RB = regOf(B, Info.OperandTy, GX.Scratch1);
    D.emit({cogen::vmOpOf(Op), Dst, RA, RB});
    return;
  }
  if (!A.IsConst && B.IsConst) {
    vm::Op IF = cogen::immFormOf(Op);
    if (IF != vm::Op::Halt) {
      D.charge(Charge::EmitHole);
      D.emitImm({IF, Dst, A.R}, B.C, 0);
      return;
    }
    uint32_t RB = regOf(B, Info.OperandTy, GX.Scratch1);
    D.emit({cogen::vmOpOf(Op), Dst, A.R, RB});
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
    D.emit({cogen::vmOpOf(Op), Dst, RA, B.R});
    return;
  }
  D.emit({cogen::vmOpOf(Op), Dst, A.R, B.R});
}

using DeferralEngine = DeferralEngineT<Concrete>;
extern template class DeferralEngineT<Concrete>;

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_DEFERRAL_H
