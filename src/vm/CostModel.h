//===- vm/CostModel.h - Alpha-21164-flavored cycle costs ------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-operation cycle costs for the abstract machine, plus the costs of the
/// DyC run-time operations (dispatching, specialization). The defaults are
/// tuned to the properties the paper depends on:
///
///  * A floating-point move costs the same as a floating-point multiply
///    (section 2.2.7: "On some architectures, such as the DEC Alpha 21164
///    ... a floating-point move takes the same time as a floating-point
///    multiply"), which is why zero/copy propagation and dead-assignment
///    elimination — not strength reduction alone — deliver pnmconvol's and
///    viewperf's speedups.
///  * An unchecked dispatch costs ~10 cycles and a hashed cache-all
///    dispatch ~90 cycles on average (section 4.4.3).
///  * Dynamic compilation costs tens-to-hundreds of cycles per generated
///    instruction (Table 3), dominated by cache lookups, memory allocation,
///    dynamic-branch handling, emission, and patching.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_COSTMODEL_H
#define DYC_VM_COSTMODEL_H

#include "vm/Bytecode.h"

#include <cstdint>

namespace dyc {
namespace vm {

/// Cycle-cost parameters of the simulated machine and run-time.
struct CostModel {
  // --- Execution costs -----------------------------------------------------
  uint32_t IntAlu = 1;      ///< add/sub/logic/shift/compare/move/const
  uint32_t IntMul = 8;      ///< 21164 integer multiply latency
  uint32_t IntDiv = 40;     ///< no hardware divide; software sequence
  uint32_t FpAdd = 4;       ///< fadd/fsub/fneg
  uint32_t FpMul = 4;       ///< fmul — equal to FpMov by design
  uint32_t FpMov = 4;       ///< floating move
  uint32_t FpDiv = 30;
  uint32_t Conv = 4;        ///< int<->float conversion
  uint32_t LoadHit = 2;     ///< D-cache hit assumed
  uint32_t StoreCost = 1;
  uint32_t BranchCost = 1;
  uint32_t CondBranchCost = 2;
  uint32_t CallCost = 10;   ///< frame setup + return path
  uint32_t RetCost = 5;
  uint32_t ICacheMissPenalty = 22; ///< L1 I-miss to L2
  /// Dynamically generated code is not scheduled (paper section 2.2.4:
  /// "DyC and similar systems currently do no run-time instruction
  /// scheduling"), while the static compiler's code enjoys the machine's
  /// dual issue; instructions in generated code pay this percentage
  /// surcharge.
  uint32_t DynCodePenaltyPct = 50;

  // --- Dispatch costs (section 4.4.3) --------------------------------------
  uint32_t DispatchUnchecked = 10; ///< load + indirect jump
  uint32_t DispatchIndexed = 14;   ///< bounds-free array index + jump
  uint32_t DispatchHashBase = 40;  ///< store key struct + call hash function
  uint32_t DispatchHashPerKeyWord = 10;
  uint32_t DispatchHashPerProbe = 15;

  // --- Dynamic-compilation costs (charged to DC overhead) ------------------
  uint32_t SpecInvoke = 700;      ///< invoking the dynamic compiler: memory
                                  ///< allocation, cache bookkeeping
  uint32_t SpecPerWorkItem = 30;  ///< per specialized (context, values) pair:
                                  ///< memoization lookup/insert
  uint32_t SpecEvalOp = 2;        ///< one static computation in set-up code
  uint32_t SpecStaticLoad = 4;    ///< static load executed at specialize time
  uint32_t SpecStaticCallBase = 12; ///< memo-table handling around a static call
  uint32_t SpecEmit = 24;         ///< construct + emit one instruction,
                                  ///< I-cache coherence amortized
  uint32_t SpecEmitHole = 3;      ///< filling one hole operand
  uint32_t SpecEmitBranch = 18;   ///< extra for emitted dynamic branches:
                                  ///< two successors queued, patch records
  uint32_t SpecPatch = 6;         ///< resolving one pending branch patch
  uint32_t SpecCacheInsert = 80;  ///< installing an entry point in the cache
  uint32_t SpecZcpTableOp = 4;    ///< completion-table check/update
  uint32_t SpecStrengthCheck = 2; ///< emit-time special-value test

  // --- Speculative-promotion costs (section 6's envisioned automation) -----
  uint32_t ProfileSample = 2;     ///< online value-profile sample at a call
  uint32_t SpecGuardBase = 4;     ///< guarded call site: counter + branch
  uint32_t SpecGuardPerWord = 2;  ///< per promoted word compared by a guard
  uint32_t SpecSynthBase = 1200;  ///< synthesizing one promotion: BTA +
                                  ///< lowering + generating-extension build
  uint32_t SpecSynthPerInstr = 8; ///< per analyzed source IR instruction

  /// Execution cost of \p I, excluding I-cache effects, calls' callee
  /// cycles, and run-time trap costs (EnterRegion/Dispatch are charged by
  /// the run-time according to the active policy). \p InDynCode applies
  /// the no-run-time-scheduling surcharge.
  uint32_t costOf(const Instr &I, bool InDynCode = false) const;

  /// Cost without the dynamic-code surcharge.
  uint32_t baseCostOf(const Instr &I) const;

  /// Cost of a hashed (cache-all) dispatch with \p KeyWords key words and
  /// \p Probes table probes.
  uint32_t hashedDispatchCost(unsigned KeyWords, unsigned Probes) const {
    return DispatchHashBase + DispatchHashPerKeyWord * KeyWords +
           DispatchHashPerProbe * Probes;
  }

  bool operator==(const CostModel &) const = default;
};

} // namespace vm
} // namespace dyc

#endif // DYC_VM_COSTMODEL_H
