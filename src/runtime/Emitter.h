//===- runtime/Emitter.h - Resolved-instruction encoder ---------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowest layer of the specializer: encoding one *resolved*
/// instruction into a code buffer. "Resolved" means every operand is
/// either a known constant (a hole to fill) or a live run-time register —
/// the deferral engine (Deferral.h) has already forced any pending
/// producers. The emitter owns the emit-time encodings of section 2.2.7:
/// hole filling, immediate-field packing, commutation/compare-mirroring to
/// reach an immediate form, and constant folding of fully resolved
/// operations.
///
/// The region code cap (OptFlags::MaxRegionInstrs) is enforced here as a
/// soft limit: instructions emitted past the cap are counted in
/// RegionStats::CodeCapHits instead of aborting. The simulated address
/// reservation of a chain only covers the cap, so an over-cap chain may
/// alias its neighbor in the I-cache model — a modeling inaccuracy, not a
/// correctness hazard.
///
/// The buffer the emitter encodes into was opened by the core (marked
/// dynamic code, given its simulated address range); the finished chain is
/// executed as bytecode, each attached VM translating it or adopting the
/// translation another VM published (vm/Decoded.h).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_EMITTER_H
#define DYC_RUNTIME_EMITTER_H

#include "cogen/CompilerGenerator.h"
#include "runtime/RuntimeStats.h"
#include "vm/VM.h"

namespace dyc {
namespace runtime {

/// A resolved operand: either a known constant (a hole to fill) or a
/// run-time register.
struct RVal {
  bool IsConst = false;
  Word C;
  uint32_t R = vm::NoReg;
  /// Index of a still-pending deferred entry producing R, or -1. The
  /// producer is materialized only if this operand is actually consumed by
  /// emitted code — the laziness that lets zero/copy propagation kill
  /// whole dead chains (address arithmetic feeding a load feeding a
  /// multiply by zero).
  int32_t Dep = -1;

  static RVal reg(uint32_t R, int32_t Dep = -1) {
    return {false, Word(), R, Dep};
  }
  static RVal cst(Word W) { return {true, W, vm::NoReg, -1}; }
};

/// True for the opcodes the emitter treats as single-operand (fold with
/// only A resolved).
bool isUnaryOpcode(ir::Opcode Op);

/// The emitter's encoding tables, exported so the staged-emit-plan
/// builder (cogen/EmitPlan.cpp) pre-encodes Copy templates with exactly
/// the encodings emitResolved would produce — one source of truth.
vm::Op vmOpOf(ir::Opcode Op);      ///< reg-reg form; fatals if none
vm::Op immFormOf(ir::Opcode Op);   ///< immediate form; vm::Op::Halt if none
bool isCommutativeOpcode(ir::Opcode Op);
ir::Opcode mirrorCompare(ir::Opcode Op); ///< Lt<->Gt, Le<->Ge; else Op

/// Encodes resolved instructions into one code chain's buffer.
class Emitter {
public:
  Emitter(vm::CodeObject &Buf, RegionStats &Stats, vm::VM &M,
          const cogen::GenExtFunction &GX, size_t MaxInstrs)
      : Buf(Buf), Stats(Stats), M(M), CM(M.costModel()), GX(GX),
        MaxInstrs(MaxInstrs) {}

  uint32_t size() const { return static_cast<uint32_t>(Buf.Code.size()); }

  /// Mutable access to an already-emitted instruction (branch patching,
  /// hole filling). Bumps the buffer's Version so the VM's predecoded
  /// translation cache re-decodes instead of running a stale translation.
  vm::Instr &at(size_t PC) {
    ++Buf.Version;
    return Buf.Code[PC];
  }

  void emitRaw(vm::Instr I);
  void emitConst(uint32_t Dst, Word C, ir::Type Ty);

  /// Ensures \p A is in a register, materializing constants into \p
  /// Scratch; returns the register.
  uint32_t regOf(const RVal &A, ir::Type Ty, uint32_t Scratch);

  /// Emits one resolved instruction (immediate packing, commutation,
  /// scratch materialization, folding of all-constant operands). Operands
  /// carrying a deferred-producer Dep must have been forced by the caller
  /// — emission never re-enters the deferral table.
  void emitResolved(ir::Opcode Op, ir::Type Ty, uint32_t Dst, const RVal &A,
                    const RVal &B, int64_t Imm);

private:
  void charge(uint64_t Cycles) { M.chargeDynComp(Cycles); }

  vm::CodeObject &Buf;
  RegionStats &Stats;
  vm::VM &M;
  const vm::CostModel &CM;
  const cogen::GenExtFunction &GX;
  size_t MaxInstrs;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_EMITTER_H
