//===- runtime/Emitter.h - Emit-semantics vocabulary, concrete domain -------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowest layer of the specializer. The emit semantics of section
/// 2.2.7 — the deferral table, dynamic constant folding, zero/copy
/// propagation, strength reduction, and the resolved-instruction encoder
/// (hole filling, immediate packing, commutation and compare mirroring) —
/// are written once, in runtime/Deferral.h, as a template over a *value
/// domain*. This header holds what every domain shares (the resolved
/// operand, the deferral-table entry, one charge kind per cost-model
/// rate, the encoding tables) and the emit-time domain, Concrete:
///
///  * Concrete — values are the specialize-time Words. Tests compare them
///    directly; emits append to the chain buffer, charge the VM and bump
///    RegionStats. It serves the plan's Generic steps, the driver's
///    terminators, and the reference walk (OptFlags::ReferenceWalk).
///  * Symbolic (cogen/EmitPlan.cpp) — values are PlanRefs. Tests fork the
///    plan through guards; immediates become holes, and charges and stats
///    become per-step counts the PlanRunner replays.
///
/// The region code cap (OptFlags::MaxRegionInstrs) is enforced here as a
/// soft limit: instructions emitted past the cap are counted in
/// RegionStats::CodeCapHits instead of aborting. The simulated address
/// reservation of a chain only covers the cap, so an over-cap chain may
/// alias its neighbor in the I-cache model — a modeling inaccuracy, not a
/// correctness hazard.
///
/// The buffer Concrete encodes into was opened by the core (marked dynamic
/// code, given its simulated address range); the finished chain is
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
/// run-time register. \p V is the domain's value type.
template <typename V> struct Resolved {
  bool IsConst = false;
  V C{};
  uint32_t R = vm::NoReg;
  /// Index of a still-pending deferred entry producing R, or -1. The
  /// producer is materialized only if this operand is actually consumed by
  /// emitted code — the laziness that lets zero/copy propagation kill
  /// whole dead chains (address arithmetic feeding a load feeding a
  /// multiply by zero).
  int32_t Dep = -1;

  static Resolved reg(uint32_t R, int32_t Dep = -1) {
    Resolved X;
    X.R = R;
    X.Dep = Dep;
    return X;
  }
  static Resolved cst(V C) {
    Resolved X;
    X.IsConst = true;
    X.C = C;
    return X;
  }
};

using RVal = Resolved<Word>;

/// One entry of the deferral table: a pure instruction whose emission is
/// deferred until emitted code consumes its result (see Deferral.h).
template <typename V> struct DeferredEntry {
  ir::Opcode Op = ir::Opcode::Mov;
  ir::Type Ty = ir::Type::I64;
  uint32_t Dst = vm::NoReg;
  Resolved<V> A, B;
  V Imm{};
  bool Pending = true; ///< false once emitted or killed
};

/// The deferral table of one block: entries in creation order, plus a flat
/// register -> latest-entry map. Latest holds exactly the pending entries,
/// one per register, so a scan beats a tree and a snapshot is a plain copy.
template <typename V> struct DeferralTable {
  struct Link {
    uint32_t Reg = 0;
    uint32_t Idx = 0;
  };
  std::vector<DeferredEntry<V>> Entries;
  std::vector<Link> Latest;
};

/// The cost-model rates specialization charges, one kind per CostModel
/// field. Concrete charges each at once; a plan step counts them.
enum class Charge : uint8_t {
  EvalOp,
  StaticLoad,
  Emit,
  EmitHole,
  TableOp,
  StrengthCheck,
};
constexpr size_t NumCharges = 6;

inline uint64_t cyclesOf(const vm::CostModel &CM, Charge K) {
  switch (K) {
  case Charge::EvalOp: return CM.SpecEvalOp;
  case Charge::StaticLoad: return CM.SpecStaticLoad;
  case Charge::Emit: return CM.SpecEmit;
  case Charge::EmitHole: return CM.SpecEmitHole;
  case Charge::TableOp: return CM.SpecZcpTableOp;
  case Charge::StrengthCheck: return CM.SpecStrengthCheck;
  }
  return 0;
}

/// The RegionStats counters the emit semantics bump.
enum class Stat : uint8_t {
  ZcpApplied,
  StrengthReduced,
  DeadAssign,
  Materialized,
};
constexpr size_t NumStats = 4;

inline uint64_t &statOf(RegionStats &S, Stat K) {
  switch (K) {
  case Stat::ZcpApplied: return S.ZcpApplied;
  case Stat::StrengthReduced: return S.StrengthReduced;
  case Stat::DeadAssign: return S.DeadAssignsEliminated;
  case Stat::Materialized: return S.MaterializedDeferred;
  }
  return S.MaterializedDeferred;
}

/// True for the opcodes the emitter treats as single-operand (fold with
/// only A resolved).
bool isUnaryOpcode(ir::Opcode Op);

/// Encoding tables of the resolved-instruction encoder.
vm::Op vmOpOf(ir::Opcode Op);      ///< reg-reg form; fatals if none
vm::Op immFormOf(ir::Opcode Op);   ///< immediate form; vm::Op::Halt if none
bool isCommutativeOpcode(ir::Opcode Op);
ir::Opcode mirrorCompare(ir::Opcode Op); ///< Lt<->Gt, Le<->Ge; else Op

/// The emit-time value domain: encodes into one code chain's buffer.
class Concrete {
public:
  using Value = Word;
  using Env = std::vector<Word>; ///< the static registers' values

  Concrete(vm::CodeObject &Buf, RegionStats &Stats, vm::VM &M,
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

  static Word staticValue(const Env &Vals, uint32_t Reg) { return Vals[Reg]; }
  static Word lit(Word W) { return W; }
  static int64_t literal(Word W) { return W.asInt(); }
  static Word stable(Word W) { return W; }
  static bool eqBits(Word A, Word Cmp) { return A.Bits == Cmp.Bits; }
  static bool pow2Ge2(Word A) {
    return isPowerOf2(A.asInt()) && A.asInt() >= 2;
  }
  static Word log2(Word A) { return Word::fromInt(log2OfPow2(A.asInt())); }
  static bool fold(ir::Opcode Op, Word A, Word B, Word &Out) {
    return ir::evalPureOp(Op, A, B, Out);
  }

  void charge(Charge K) { M.chargeDynComp(cyclesOf(CM, K)); }
  void count(Stat K) { ++statOf(Stats, K); }
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
