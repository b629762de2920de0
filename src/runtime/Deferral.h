//===- runtime/Deferral.h - Staged deferral and the emit semantics ----------------===//
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
/// Every charge and RegionStats bump of those semantics is made here, at
/// the point the semantics reach it.
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

class DeferralEngine {
public:
  DeferralEngine(Emitter &E, const OptFlags &Flags,
                 const cogen::GenExtFunction &GX)
      : E(E), Stats(E.stats()), CM(E.costModel()), Flags(Flags), GX(GX) {}

  /// Block boundary: forget pending entries without emitting (the caller
  /// uses dropAllPending() first when the drops must be counted).
  void reset() {
    Entries.clear();
    Latest.clear();
  }

  /// Resolves a run-time register through the deferral table.
  RVal readResolve(uint32_t Reg);

  RVal resolveOperand(const cogen::Operand &O, const std::vector<Word> &Vals) {
    if (O.R == ir::NoReg)
      return RVal();
    if (O.Static)
      return RVal::cst(Vals[O.R]);
    return readResolve(O.R);
  }

  /// If \p A references a still-pending deferred producer, emit it (and,
  /// recursively, its dependencies).
  void forceOperand(const RVal &A) {
    if (A.Dep >= 0 && Entries[static_cast<size_t>(A.Dep)].Pending)
      materializeEntry(static_cast<size_t>(A.Dep));
  }

  /// Before an instruction writes \p Dst: pending readers of Dst must be
  /// materialized (they captured the old value's register); a pending
  /// producer of Dst is dead and is dropped — dead-assignment elimination.
  void writeEvent(uint32_t Dst);

  /// Memory is about to be written or a call made: pending loads must be
  /// emitted first.
  void memoryClobber() {
    for (size_t I = 0; I != Entries.size(); ++I)
      if (Entries[I].Pending && Entries[I].Op == ir::Opcode::Load)
        materializeEntry(I);
  }

  /// Drops every still-pending entry (block boundary; deferrable results
  /// are block-dead by the static plan).
  void dropAllPending() {
    for (Entry &En : Entries) {
      if (!En.Pending)
        continue;
      En.Pending = false;
      ++Stats.DeadAssignsEliminated;
    }
    Latest.clear();
  }

  /// Resolves, optimizes, and defers-or-emits one planned dynamic
  /// instruction (SetupOp::EmitInstr).
  void emitDynamic(const cogen::SetupOp &Op, const std::vector<Word> &Vals);

  /// One hole charge, then the constant instruction.
  void emitConst(uint32_t Dst, Word C, ir::Type Ty) {
    E.charge(CM.SpecEmitHole);
    E.emitImm({Ty == ir::Type::F64 ? vm::Op::ConstF : vm::Op::ConstI, Dst}, C,
              0);
  }

  /// Emits one resolved instruction (immediate packing, commutation,
  /// scratch materialization, folding of all-constant operands). Operands
  /// carrying a deferred-producer Dep must have been forced by the caller
  /// — emission never re-enters the deferral table.
  void emitResolved(ir::Opcode Op, ir::Type Ty, uint32_t Dst, const RVal &A,
                    const RVal &B, Word Imm);

private:
  /// One table entry: a pure instruction whose emission is deferred until
  /// emitted code consumes its result.
  struct Entry {
    ir::Opcode Op = ir::Opcode::Mov;
    ir::Type Ty = ir::Type::I64;
    uint32_t Dst = vm::NoReg;
    RVal A, B;
    Word Imm{};
    bool Pending = true; ///< false once emitted or killed
  };
  /// A register's latest pending entry.
  struct Link {
    uint32_t Reg = 0;
    uint32_t Idx = 0;
  };

  Link *latest(uint32_t Reg) {
    for (Link &L : Latest)
      if (L.Reg == Reg)
        return &L;
    return nullptr;
  }
  void eraseLatest(Link *L) {
    *L = Latest.back();
    Latest.pop_back();
  }

  /// Emits a pending entry now ("the move is materialized"), after any
  /// still-pending producers of its operands.
  void materializeEntry(size_t Idx);

  void deferOrEmit(const cogen::SetupOp &Op, ir::Opcode FormOp, ir::Type Ty,
                   uint32_t Dst, const RVal &A, const RVal &B, Word Imm);

  /// Ensures \p A is in a register, materializing a constant into
  /// \p Scratch; returns the register.
  uint32_t regOf(const RVal &A, ir::Type Ty, uint32_t Scratch) {
    if (!A.IsConst)
      return A.R;
    emitConst(Scratch, A.C, Ty);
    return Scratch;
  }

  Emitter &E;
  RegionStats &Stats;
  const vm::CostModel &CM;
  const OptFlags &Flags;
  const cogen::GenExtFunction &GX;
  /// Entries in creation order, plus a flat register -> latest-entry map.
  /// Latest holds exactly the pending entries, one per register, so a scan
  /// beats a tree.
  std::vector<Entry> Entries;
  std::vector<Link> Latest;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_DEFERRAL_H
