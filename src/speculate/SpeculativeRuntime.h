//===- speculate/SpeculativeRuntime.h - Annotation-free DyC ------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculative promotion subsystem: DyC without annotations. The
/// run-time closes the loop the paper sketches as future work (sections
/// 3.2 and 6) — profile, promote, guard, deoptimize, demote:
///
///  * Every call to a guarded function is sampled into a ValueProfiler
///    (always-on, charged at CostModel::ProfileSample cycles).
///  * Once a function is hot, the PromotionController decides from the
///    profile and a trial-BTA structural benefit whether to synthesize an
///    annotated twin (make_static at entry, cache_one_unchecked), lower
///    it, and register it as a fresh region with the inner DycRuntime.
///  * A GuardSite then redirects calls whose promoted arguments equal the
///    speculated values to the twin; the twin's region entry specializes
///    and memoizes chains exactly as an annotated build would.
///    cache_one_unchecked is sound here because the guard compares
///    precisely the promoted parameters before every redirect.
///  * A mismatched guard deoptimizes: the call runs the original generic
///    code, bit-identical by construction, and the failure feeds back
///    into the profile.
///  * Sites that thrash demote: worst-offending parameters are
///    blacklisted, the profile reset, the twin's chains released through
///    the chain-eviction safe point, and — after MaxPromotions — the
///    guard removed for good.
///
/// All charges flow through the VM's simulated counters, so both engines
/// stay bit-identical; promotion decisions depend only on executed calls,
/// so they are deterministic too.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SPECULATE_SPECULATIVERUNTIME_H
#define DYC_SPECULATE_SPECULATIVERUNTIME_H

#include "profile/ValueProfiler.h"
#include "runtime/Specializer.h"
#include "speculate/GuardManager.h"
#include "speculate/PromotionController.h"
#include "speculate/SpeculationPolicy.h"
#include "speculate/SpeculationStats.h"

#include <memory>

namespace dyc {
namespace speculate {

/// Copy of \p M with the MakeStatic/MakeDynamic pseudo-instructions
/// erased. The `@` (StaticLoad) and pure (StaticCall) bits are RETAINED:
/// they assert properties of memory and callees ("this load's location is
/// quasi-invariant"), not a request to specialize, and the synthesized
/// twins need them for static loads and calls to fold.
ir::Module stripAnnotations(const ir::Module &M);

/// The annotation-free DyC run-time: wraps a DycRuntime over the stripped
/// module and drives promotions from online profiles.
class SpeculativeRuntime : public vm::RuntimeHook {
public:
  /// Strips \p M, lowers the generic module into \p Prog, and builds the
  /// inner runtime. \p M is only read during construction; \p Prog must
  /// outlive this object.
  SpeculativeRuntime(const ir::Module &M, vm::Program &Prog,
                     const OptFlags &Flags,
                     const SpeculationPolicy &Policy,
                     runtime::ChainBudget Budget = {});

  /// Arms the call guards on \p Machine (every function with parameters,
  /// when the policy is enabled). Call once after construction.
  void arm(vm::VM &Machine);

  // --- RuntimeHook --------------------------------------------------------
  Target dispatch(vm::VM &M, int64_t PointId,
                  std::vector<Word> &Regs) override;
  uint32_t onGuardedCall(vm::VM &M, uint32_t Callee, const Word *Args,
                         uint32_t NArgs) override;

  // --- Introspection ------------------------------------------------------
  const SpeculationStats &stats() const { return Stats; }
  profile::ValueProfiler &profiler() { return Prof; }
  const profile::ValueProfiler &profiler() const { return Prof; }
  PromotionController &controller() { return *Controller; }
  runtime::DycRuntime &runtime() { return *Inner; }
  const runtime::DycRuntime &runtime() const { return *Inner; }
  const ir::Module &specModule() const { return SpecM; }
  const GuardManager &guards() const { return Guards; }
  const std::vector<cogen::LoweredFunction> &lowered() const {
    return Lowered;
  }

  /// Region ordinal of the active promotion guarding \p Func, or -1.
  int ordinalOf(uint32_t Func) const {
    const GuardSite *S = Guards.find(Func);
    return S ? static_cast<int>(S->Ordinal) : -1;
  }

  std::string disassembleRegion(size_t Ordinal) const {
    return Inner->disassembleRegion(Ordinal);
  }

private:
  /// Tears down \p Site: blacklists its worst parameters, resets the
  /// profile, releases the twin's chains, and removes the guard site.
  void demote(vm::VM &M, GuardSite &Site);

  ir::Module SpecM; ///< stripped module + appended twins (owned)
  OptFlags Flags;
  SpeculationPolicy Policy;
  profile::ValueProfiler Prof;
  SpeculationStats Stats;
  GuardManager Guards;
  std::vector<cogen::LoweredFunction> Lowered;
  std::unique_ptr<runtime::DycRuntime> Inner;
  std::unique_ptr<PromotionController> Controller;
  /// Lifetime promotion count per original function (MaxPromotions cap).
  std::vector<uint32_t> PromotionCount;
  /// True while the inner runtime specializes (its generating extension
  /// may execute static calls through the VM) or a twin is being
  /// synthesized: guarded calls made then pass through unprofiled, so
  /// specialize-time evaluation never mutates promotion state it is
  /// itself running under.
  bool Busy = false;
};

} // namespace speculate
} // namespace dyc

#endif // DYC_SPECULATE_SPECULATIVERUNTIME_H
