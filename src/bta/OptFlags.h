//===- bta/OptFlags.h - Per-optimization toggles --------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Master switches for each of DyC's staged run-time optimizations. Table 5
/// of the paper is produced by disabling one at a time. Semantics of each
/// "off" position follow section 4.4:
///
///  * CompleteLoopUnrolling off: loop-variant variables are demoted to
///    dynamic at loop heads, so loops are specialized once instead of
///    being completely unrolled.
///  * StaticLoads off: `@` annotations are ignored; loads are dynamic.
///  * StaticCalls off: pure-call annotations are ignored.
///  * UncheckedDispatching off: every promotion point uses the safe
///    cache-all (double-hashed) policy regardless of annotation.
///  * ZeroCopyPropagation off: emit-time 0/1 operand checks are skipped
///    (multiplies by 0/1 are emitted as-is; strength reduction may still
///    rewrite them if enabled).
///  * DeadAssignmentElimination off: zero/copy propagation still replaces
///    operations with moves/clears, but the moves are materialized
///    immediately instead of deferred-and-possibly-dropped.
///  * StrengthReduction off: no emit-time power-of-two rewrites or
///    immediate-field packing of static operands.
///  * InternalPromotions off: a make_static of a dynamic value in the
///    middle of a region is ignored.
///  * PolyvariantDivision off: a program point keeps a single division;
///    divisions meeting at a point are intersected.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_BTA_OPTFLAGS_H
#define DYC_BTA_OPTFLAGS_H

#include <cstddef>
#include <cstdint>

namespace dyc {

/// Tiered-execution policy (the src/tier/ controller). Tiering changes
/// *when* specialization work happens — never what executes or what the
/// simulated counters charge per executed dispatch — so it is policy, not
/// a toggle: at steady state every configuration reaches byte-identical
/// chains and bit-identical per-round counters.
struct TieringPolicy {
  /// Master switch; off preserves the eager (pre-tiering) behavior of
  /// whatever miss policy the front end configured.
  bool Enabled = false;
  /// Dispatch-key heat at which a cold key stops single-stepping and runs
  /// predecoded generic code. 0 = born warm.
  uint32_t WarmThreshold = 2;
  /// Heat at which a warm key requests background specialization.
  /// 0 = born hot (every miss enqueues immediately).
  uint32_t HotThreshold = 8;
  /// Background-compile admission cap: a hot miss does not enqueue while
  /// this many submitted jobs are unfinished. 0 = unlimited.
  uint32_t MaxInFlightCompiles = 4;
  /// Back-edge polls a frame must have answered before an OSR transfer is
  /// taken (lets tests script the transfer point deterministically).
  uint32_t OsrMinPolls = 1;
  /// Test hook: hot misses block on the compile and install synchronously,
  /// mirroring MissPolicy::Block cycle-for-cycle. With thresholds at 0
  /// this makes a tiered run bit-identical to an eager one end to end.
  bool SyncInstall = false;
};

/// DyC optimization toggles (all on by default, the paper's "with all
/// optimizations" configuration).
struct OptFlags {
  bool CompleteLoopUnrolling = true;
  bool StaticLoads = true;
  bool StaticCalls = true;
  bool UncheckedDispatching = true;
  bool ZeroCopyPropagation = true;
  bool DeadAssignmentElimination = true;
  bool StrengthReduction = true;
  bool InternalPromotions = true;
  bool PolyvariantDivision = true;

  /// Per-region code cap: instructions emitted past this limit are counted
  /// in RegionStats::CodeCapHits (soft limit) rather than aborting. Also
  /// sizes the simulated address reservation per code chain.
  size_t MaxRegionInstrs = 1u << 20;

  /// Tiered-execution policy (see TieringPolicy). Not a toggle:
  /// steady-state behavior is invariant.
  TieringPolicy Tier;

  /// Named accessors for the ablation harness (Table 5 columns).
  static constexpr unsigned NumToggles = 9;
  static const char *toggleName(unsigned Idx);
  bool &toggle(unsigned Idx);

  /// Content fingerprint of everything that can change *what code a
  /// specialization run emits*: the nine optimization toggles and the
  /// region code cap. Tier is deliberately excluded — it is contractually
  /// unable to change emitted chains. The server's chain store folds this
  /// into its dedup key, and the warm-start file records it so a cache
  /// serialized under one configuration is never adopted under another.
  uint64_t fingerprint() const {
    uint64_t F = 0;
    const bool Toggles[NumToggles] = {
        CompleteLoopUnrolling, StaticLoads,        StaticCalls,
        UncheckedDispatching,  ZeroCopyPropagation, DeadAssignmentElimination,
        StrengthReduction,     InternalPromotions,  PolyvariantDivision};
    for (unsigned I = 0; I != NumToggles; ++I)
      F |= Toggles[I] ? (1ull << I) : 0;
    // FNV-1a fold of the code cap onto the toggle bits.
    F ^= 0xcbf29ce484222325ull;
    F *= 1099511628211ull;
    F ^= static_cast<uint64_t>(MaxRegionInstrs);
    F *= 1099511628211ull;
    return F;
  }
};

} // namespace dyc

#endif // DYC_BTA_OPTFLAGS_H
