//===- runtime/Specializer.h - The inline DyC run-time ----------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-client, specialize-on-the-dispatch-path front end of the DyC
/// run-time. All the machinery — code chains, the generating-extension
/// walk, emit-time optimizations, capacity accounting — lives in the
/// shared RegionExecutionCore (RegionExec.h); this class contributes only
/// what is front-end specific:
///
///  * one CodeCache per promotion point (cache_all / cache_one /
///    cache_one_unchecked / cache_indexed, paper section 2.2.3), mutated
///    in place, mapping static-value tuples to published SpecEntries,
///  * a monomorphic inline cache per dispatch site in front of it, and
///  * the VM trap handler that composes dispatch keys, charges the paper's
///    dispatch costs, and runs the specializer inline on a miss.
///
/// The concurrent front end (server::SpecServer) probes copies of the same
/// CodeCache, published copy-on-write, and specializes on a worker pool;
/// it shares the core — so generated code, statistics, eviction behavior
/// and the probe counts a dispatch is charged are identical by
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_SPECIALIZER_H
#define DYC_RUNTIME_SPECIALIZER_H

#include "bta/OptFlags.h"
#include "cogen/CompilerGenerator.h"
#include "runtime/CodeCache.h"
#include "runtime/RegionExec.h"
#include "vm/VM.h"

#include <memory>

namespace dyc {
namespace runtime {

/// The inline DyC run-time: dispatches through dynamic-code caches and, on
/// a miss, specializes synchronously on the client's own thread.
class DycRuntime : public vm::RuntimeHook {
public:
  /// \p Budget bounds resident generated code per region (zeros —
  /// the default — mean unbounded, the paper's behavior).
  DycRuntime(const ir::Module &M, vm::Program &Prog, const OptFlags &Flags,
             ChainBudget Budget = {})
      : Core(M, Prog, Flags, Budget) {}

  /// Registers the generating extension for the next annotated function.
  /// Must be called in annotated-ordinal order (the order lowerModule
  /// encoded into EnterRegion instructions).
  void addRegion(cogen::GenExtFunction GX);

  /// VM trap entry point. \p PointId >= 0 encodes a native entry
  /// (ordinal << 16 | promoId); negative values are run-time dispatch
  /// sites (-(site + 1)).
  Target dispatch(vm::VM &M, int64_t PointId,
                  std::vector<Word> &Regs) override;

  /// Unpublishes every resident specialization of region \p Ordinal:
  /// cache entries are erased (bumping each cache's epoch, which kills
  /// any inline-cache memo of them), predecoded translations of their
  /// chains invalidated, and the entries handed to the core's capacity
  /// manager as displaced — reclaimable at the next collectChains() safe
  /// point once no executor is inside them. The speculative run-time's
  /// demotion path uses this; a later dispatch simply respecializes.
  void releaseRegion(vm::VM &VMRef, size_t Ordinal);

  /// The shared core (tests and embedders reach chain lifecycle and
  /// capacity accounting through it).
  RegionExecutionCore &core() { return Core; }
  const RegionExecutionCore &core() const { return Core; }

  /// Always "bytecode"; kept for the end-to-end benchmark, which records
  /// it in its report (perfbench/src/Workloads.cpp).
  const char *backendName() const { return "bytecode"; }

  size_t numRegions() const { return Core.numRegions(); }
  const RegionStats &stats(size_t Ordinal) const { return Core.stats(Ordinal); }
  /// Host seconds spent inside the specializer (see
  /// RegionExecutionCore::specializeHostSeconds).
  double specializeHostSeconds() const {
    return Core.specializeHostSeconds();
  }
  RegionStats &statsMutable(size_t Ordinal) {
    return Core.statsMutable(Ordinal);
  }

  /// Disassembles a region's live code chains in creation order (the
  /// examples' Figure-3/4-style dumps).
  std::string disassembleRegion(size_t Ordinal) const {
    return Core.disassembleRegion(Ordinal);
  }

  /// Renders a region's generating extension (set-up/emit programs).
  std::string printRegion(size_t Ordinal, const ir::Module &Mod) const {
    return Core.printRegion(Ordinal, Mod);
  }

  /// Table probes per cache lookup across a region's promotion points
  /// (dispatch-cost reporting; an inline-cache hit counts the lookup it
  /// stands for).
  double avgCacheProbes(size_t Ordinal) const;

  /// Toggles the per-dispatch-site monomorphic inline caches (on by
  /// default). A host-speed optimization only: every simulated counter —
  /// ExecCycles, DynCompCycles, cache lookups/probes — is bit-identical
  /// with the caches on or off (the parity tests assert this).
  void setInlineCacheEnabled(bool On) { ICEnabled = On; }
  bool inlineCacheEnabled() const { return ICEnabled; }

  /// Host-level count of dispatches served from an inline cache (not a
  /// simulated statistic — used by tests and benches to prove the fast
  /// path engaged).
  uint64_t inlineCacheHits() const { return ICHits; }

private:
  /// Monomorphic inline cache for one dispatch site (a native region entry
  /// or an interned run-time dispatch stub). Memoizes the last
  /// (promoted values -> published entry) mapping together with the
  /// probe count the real lookup produced; CodeCache::epoch() validates it,
  /// since insert and erase are the only operations that can change what a
  /// key maps to or how many probes a table lookup takes. The raw Entry
  /// pointer is safe because every unpublish path mutates the same cache
  /// (bumping the epoch) before the entry can be destroyed, and the epoch
  /// check precedes every dereference.
  struct SiteMemo {
    static constexpr size_t MaxKeyVals = 8;
    const SpecEntry *Entry = nullptr;
    uint64_t Epoch = 0;
    const DispatchSite *Site = nullptr; ///< stable: sites are deque-interned
    uint32_t Ord = 0;
    uint32_t PromoId = 0;
    uint32_t KeyWords = 0;  ///< full key size (baked + promoted)
    uint32_t NumVals = 0;   ///< promoted values memoized below
    unsigned Probes = 0;    ///< table probes the memoized lookup took
    bool Resolved = false;  ///< Ord/PromoId/Site decoded once
    Word Vals[MaxKeyVals];
  };

  /// Front-end state for one region: the dispatch caches, and the lookup
  /// and table-probe totals avgCacheProbes reports.
  struct Front {
    std::vector<CodeCache> PromoCaches; ///< index == promo id
    std::vector<SiteMemo> PromoMemos; ///< native entries, index == promo id
    uint64_t Lookups = 0;
    uint64_t Probes = 0;
  };

  /// Retires an entry its cache no longer holds: drops it from the
  /// residency book and retires its chain with the core, invalidating the
  /// VM's predecoded translation of it.
  void retire(vm::VM &VMRef, const SpecEntry &E, ir::CachePolicy Policy);

  RegionExecutionCore Core;
  std::vector<Front> Fronts; ///< parallel to the core's regions
  std::vector<SiteMemo> SiteMemos; ///< run-time dispatch sites, by index
  SmallKeyBuf KeyScratch; ///< retained-capacity dispatch-key composition
  uint64_t ICHits = 0;    ///< host-level fast-path counter (not simulated)
  bool ICEnabled = true;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_SPECIALIZER_H
