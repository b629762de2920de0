//===- runtime/Emitter.h - The chain encoder and its operand -----------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowest layer of the specializer: the encoder that appends residual
/// instructions to one code chain's buffer, charging the VM and bumping
/// RegionStats as it goes, the resolved operand the emit semantics of
/// section 2.2.7 (runtime/Deferral.h) pass around, and the static
/// computations of the set-up code. The IR-to-VM encoding tables are
/// static lowering's (cogen/Lowering.h), so residual and static code
/// encode an operation alike.
///
/// The region code cap (OptFlags::MaxRegionInstrs) is enforced here as a
/// soft limit: instructions emitted past the cap are counted in
/// RegionStats::CodeCapHits instead of aborting. The simulated address
/// reservation of a chain only covers the cap, so an over-cap chain may
/// alias its neighbor in the I-cache model — a modeling inaccuracy, not a
/// correctness hazard.
///
/// The buffer the Emitter encodes into was opened by the core (marked
/// dynamic code, given its simulated address range); the finished chain is
/// executed as bytecode, each attached VM translating it or adopting the
/// translation another VM published (vm/Decoded.h).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_EMITTER_H
#define DYC_RUNTIME_EMITTER_H

#include "cogen/CompilerGenerator.h"
#include "ir/ConstEval.h"
#include "runtime/RuntimeStats.h"
#include "vm/VM.h"

namespace dyc {
namespace runtime {

/// A resolved operand: either a known constant (a hole to fill) or a
/// run-time register.
struct RVal {
  bool IsConst = false;
  Word C{};
  uint32_t R = vm::NoReg;
  /// Index of a still-pending deferred entry producing R, or -1. The
  /// producer is materialized only if this operand is actually consumed by
  /// emitted code — the laziness that lets zero/copy propagation kill
  /// whole dead chains (address arithmetic feeding a load feeding a
  /// multiply by zero).
  int32_t Dep = -1;

  static RVal reg(uint32_t R, int32_t Dep = -1) {
    RVal X;
    X.R = R;
    X.Dep = Dep;
    return X;
  }
  static RVal cst(Word C) {
    RVal X;
    X.IsConst = true;
    X.C = C;
    return X;
  }
};

/// The set-up code's static computations at specialize time
/// (UnrollDriver::execSetup). The two faults static code can hit, a zero
/// divisor and a load outside VM memory, are checked and reported here
/// only; either stops the process.
struct StaticEval {
  /// The pure operation \p Op on \p A and \p B.
  static Word op(ir::Opcode Op, Word A, Word B) {
    Word Out;
    if (!ir::evalPureOp(Op, A, B, Out))
      fatal("static computation faulted at specialize time (division "
            "by a zero-valued run-time constant)");
    return Out;
  }
  /// The word of \p Mem at \p Base + \p Off.
  static Word load(const vm::Memory &Mem, Word Base, int64_t Off) {
    int64_t Addr = wrapAdd(Base.asInt(), Off);
    if (Addr < 0 || static_cast<uint64_t>(Addr) >= Mem.size())
      fatal("static load out of range at specialize time");
    return Mem[static_cast<size_t>(Addr)];
  }
};

/// Encodes into one code chain's buffer.
class Emitter {
public:
  Emitter(vm::CodeObject &Buf, RegionStats &Stats, vm::VM &M,
          size_t MaxInstrs)
      : Buf(Buf), Stats(Stats), M(M), CM(M.costModel()),
        MaxInstrs(MaxInstrs) {}

  uint32_t size() const { return static_cast<uint32_t>(Buf.Code.size()); }

  /// Mutable access to an already-emitted instruction (branch patching).
  /// Bumps the buffer's Version so the VM's predecoded translation cache
  /// re-decodes instead of running a stale translation.
  vm::Instr &at(size_t PC) {
    ++Buf.Version;
    return Buf.Code[PC];
  }

  RegionStats &stats() { return Stats; }
  const vm::CostModel &costModel() const { return CM; }

  /// Charges \p Cycles of dynamic-compilation time.
  void charge(uint64_t Cycles) { M.chargeDynComp(Cycles); }
  void emit(vm::Instr I);
  /// Emits \p I with its Imm field set to \p V + \p Add.
  void emitImm(vm::Instr I, Word V, int64_t Add) {
    I.Imm = wrapAdd(V.asInt(), Add);
    emit(I);
  }

private:
  vm::CodeObject &Buf;
  RegionStats &Stats;
  vm::VM &M;
  const vm::CostModel &CM;
  size_t MaxInstrs;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_EMITTER_H
