//===- runtime/RegionExec.h - Shared region-execution core ------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single core both front ends (the inline runtime::DycRuntime and
/// the concurrent server::SpecServer) build on. There is ONE
/// representation of generated code everywhere: the immutable, per-run
/// code chain. Every specialization run emits into a fresh CodeObject with
/// fresh stub maps; chains never branch into each other — cross-version
/// control flow always goes through a Dispatch trap — so evicting a chain
/// can never leave a dangling jump, inline or in the server.
///
/// The core owns, per region: the generating extension and its metadata,
/// the run-time statistics, the specialize-time static-call memo, the
/// dispatch-site table, and the capacity book (CLOCK eviction against a
/// ChainBudget). It owns globally: the chain registry that keeps evicted
/// chains alive until their active-executor count — maintained from the
/// VM's onDynamicCodeExit callback — drains to zero.
///
/// What the core does NOT own is the dispatch cache: each front end maps
/// keys to published SpecEntries its own way (per-promotion CodeCache
/// inline; lock-free ShardedCache snapshots in the server) and tells the
/// core about displacements so eviction bookkeeping stays identical.
///
/// Concurrency contract: specializeInto / admit / displaced and the
/// resident/disassembly accessors must be serialized by the caller (the
/// server holds its specialization lock; the inline runtime is
/// single-threaded). internSite / siteInfo and the chain registry are
/// internally thread-safe — clients resolve sites and release executors
/// while workers specialize.
///
/// Interaction with the VM's predecoded translation cache: translations
/// are keyed by CodeObject::BaseAddr, and Program::allocCodeAddr never
/// reuses an address, so a freed chain's stale translation can never be
/// reached through a newly published chain. The core owns the front end's
/// SharedTranslations table: every VM it attaches publishes the
/// translations it builds of chains and adopts those of other VMs, and
/// the core itself releases a chain's entry when it evicts or displaces
/// the chain — eager reclamation for all front ends, including the
/// server, whose client VMs the core cannot reach. A front end that
/// unpublishes a chain (admit's eviction callback, one-slot displacement)
/// should also call VM::invalidateDecoded on its own VM, so the VM's
/// cache does not pin memory for code the registry is about to free; the
/// VM additionally revalidates every translation against (Code.size(),
/// Version) when it enters a code object, which is what makes the
/// specializer's rewrites (branch patching through Concrete::at, which
/// bumps Version) safe even without eager invalidation.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_REGIONEXEC_H
#define DYC_RUNTIME_REGIONEXEC_H

#include "bta/OptFlags.h"
#include "cogen/CompilerGenerator.h"
#include "cogen/EmitPlan.h"
#include "runtime/RuntimeStats.h"
#include "support/Arena.h"
#include "vm/VM.h"

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace dyc {
namespace runtime {

/// Generated-code budget per region. Zeros mean unbounded, the paper's
/// behavior — DyC never freed dynamically generated code.
struct ChainBudget {
  size_t MaxEntries = 0;  ///< cached specializations per region
  uint64_t MaxInstrs = 0; ///< total emitted instructions per region
};

/// One specialization run's output: code plus the stub maps that run
/// created. Immutable after the run completes (publication happens-before
/// any client execution via the front end's cache publication).
struct CodeChain {
  vm::CodeObject CO;
  /// Stubs created by this run only (exit block -> PC, site -> PC).
  std::map<ir::BlockId, uint32_t> ExitStubs;
  std::map<uint32_t, uint32_t> DispatchStubs;
  /// Mid-loop (OSR) entry points: IR block -> chain PC, recorded for
  /// blocks the run placed exactly once. A multi-placed block (unrolled
  /// loop head) has no single residual pc a generic frame could transfer
  /// to, so it is excluded. Immutable after the run, like the stub maps.
  std::map<ir::BlockId, uint32_t> OsrEntries;
  /// Clients currently executing inside CO.
  std::atomic<uint32_t> ActiveRefs{0};
  /// Set (under the owner's serialization) when the chain's cache entry is
  /// removed — by capacity eviction or one-slot displacement.
  std::atomic<bool> Evicted{false};
  uint64_t Ordinal = 0; ///< creation order across all regions
  uint32_t Region = 0;  ///< owning region ordinal
  uint32_t Instrs = 0;  ///< CO.Code.size() at publication
};

/// Maps a CodeObject back to its owning chain so onDynamicCodeExit — which
/// only sees the CodeObject pointer — can drop the executor count.
/// Readers (every dispatch and every exit callback) take the shared lock;
/// chain registration and collection take it exclusively.
class ChainRegistry {
public:
  void add(std::shared_ptr<CodeChain> Chain);

  /// Chain owning \p CO, or null.
  std::shared_ptr<CodeChain> find(const vm::CodeObject *CO) const;

  /// Convenience for the exit callback: decrement without copying the
  /// shared_ptr. No-op for unknown CodeObjects.
  void releaseExecutor(const vm::CodeObject *CO) const;

  /// Frees evicted chains whose executor count has drained, releasing
  /// their entries in \p Shared. Returns how many were collected. Safe to
  /// call at any time: a chain with ActiveRefs == 0 and Evicted set can no
  /// longer be entered (its cache entry is gone, and entry only happens
  /// through a cache).
  size_t collect(vm::SharedTranslations &Shared);

  size_t size() const;

  /// Live chains of one region, sorted by creation ordinal (for region
  /// disassembly).
  std::vector<std::shared_ptr<CodeChain>> chainsOfRegion(uint32_t Region) const;

private:
  mutable std::shared_mutex Mutex;
  std::unordered_map<const vm::CodeObject *, std::shared_ptr<CodeChain>> Map;
};

/// Per-entry usage counters, shared so hit counts and recency survive the
/// server's snapshot rebuilds. Touched by concurrent readers.
struct EntryStats {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> LastUse{0}; ///< global dispatch tick of last hit
  std::atomic<bool> RefBit{false};  ///< CLOCK reference bit
  /// Multi-tenant adoption marker: the entry was published over a chain
  /// from the cross-tenant store instead of a fresh generating-extension
  /// run. The first client to enter it invalidates the chain's range in
  /// its I-cache, so an adopted chain the client executed in an earlier
  /// residency models as cold code — exactly what the fresh compile a
  /// dedicated server would have produced looks like.
  std::atomic<bool> ColdEntryPending{false};
};

/// One published specialization: key -> (chain, entry PC). This is the
/// unit both front-end caches store and the capacity book evicts.
struct SpecEntry {
  std::vector<Word> Key;
  uint64_t Hash = 0;
  size_t Point = 0;     ///< front-end cache point (server: global point id)
  uint32_t Region = 0;  ///< owning region ordinal
  uint32_t PromoId = 0; ///< promotion point within the region
  uint32_t EntryPC = 0; ///< entry offset within Chain->CO
  std::shared_ptr<CodeChain> Chain;
  std::shared_ptr<EntryStats> Use;
  uint64_t Ordinal = 0; ///< == Chain->Ordinal
};

/// Everything the specializer shares across one region's runs.
struct RegionState {
  cogen::GenExtFunction GX;
  RegionStats Stats;
  /// The region's staged emit plan (cogen/EmitPlan.h): created with every
  /// context's key list on the region's first specialization, then grown
  /// one block program per context on that context's first placement,
  /// under the caller's specialization serialization. Depends only on the
  /// immutable GX and the core's fixed flags, so it survives chain
  /// eviction and CodeObject::Version churn; storage is recycled through
  /// Pool like the region's other shared objects.
  std::shared_ptr<cogen::EmitPlan> Plan;
  /// Memo for static calls executed at specialize time.
  std::map<std::vector<uint64_t>, Word> CallMemo;
  /// "<function>.chain" — cached so per-chain naming is one append, not a
  /// chain of temporaries on the specialization path.
  std::string ChainNamePrefix;
  /// Per-context placement counts (unrolling evidence).
  std::vector<uint32_t> CtxPlacements;
  /// Pooled storage for the region's published SpecEntry / CodeChain /
  /// EntryStats objects. Blocks return to the pool when an evicted chain's
  /// last reference drops (the collection safe points), so steady-state
  /// respecialization recycles rather than reallocates. shared_ptr: the
  /// PoolAllocator keeps the pool alive past the core if an embedder holds
  /// an entry longer.
  std::shared_ptr<RecyclingPool> Pool = std::make_shared<RecyclingPool>();
  /// Per-run scratch for the unroll driver (worklist, memo nodes, patch
  /// records). A Scope around each run rolls it back; chunks reach their
  /// high-water mark once and are recycled by every later run. Only
  /// touched under the caller's specialization serialization.
  BumpArena Scratch;
};

/// A run-time dispatch site (emitted Dispatch instruction payload), also
/// returned as the thread-safe snapshot form.
struct DispatchSite {
  uint32_t RegionOrd = 0;
  uint32_t PromoId = 0;
  std::vector<Word> BakedVals; ///< values of the promo's BakedRegs
};

/// The shared region-execution core.
class RegionExecutionCore {
public:
  RegionExecutionCore(const ir::Module &M, vm::Program &Prog,
                      const OptFlags &Flags, ChainBudget Budget = {})
      : M(M), Prog(Prog), Flags(Flags), Budget(Budget) {}

  // --- Shared translations ----------------------------------------------------

  /// Connects \p M to the shared translation table when its cost model
  /// and I-cache geometry equal those of the first attached VM (a VM
  /// configured differently keeps translating for itself). Front ends
  /// call this for every VM that will execute chains — clients and the
  /// specialization VM itself. Thread-safe.
  void attachVM(vm::VM &M) {
    if (Shared->admits(M.costModel(), M.icache().config()))
      M.setSharedTranslations(Shared);
  }

  /// Entries in the shared translation table (thread-safe).
  size_t sharedTranslations() const { return Shared->size(); }

  /// Registers the generating extension for the next annotated function.
  /// Must be called in annotated-ordinal order (the order lowerModule
  /// encoded into EnterRegion instructions), before any client runs.
  void addRegion(cogen::GenExtFunction GX);

  size_t numRegions() const { return Regions.size(); }
  const OptFlags &flags() const { return Flags; }

  /// Host wall-clock seconds spent inside specializeInto, all regions,
  /// outermost invocations only (nested re-entrant runs are covered by
  /// the outer interval). Pure host-side instrumentation — never charged
  /// to any simulated counter — so bench/SpecializeThroughput.cpp can
  /// measure the specializer directly instead of subtracting an execution
  /// baseline. Caller-serialized like specializeInto itself.
  double specializeHostSeconds() const { return SpecHostSecs; }

  // --- Region metadata --------------------------------------------------------

  const bta::PromoPoint &promo(size_t Ordinal, size_t PromoId) const;
  size_t numPromos(size_t Ordinal) const;
  uint32_t regionNumRegs(size_t Ordinal) const;
  int regionFuncIdx(size_t Ordinal) const;
  const bta::RegionInfo &regionInfo(size_t Ordinal) const;

  const RegionStats &stats(size_t Ordinal) const;
  RegionStats &statsMutable(size_t Ordinal);

  // --- Dispatch sites (thread-safe) -------------------------------------------

  DispatchSite siteInfo(size_t Idx) const;

  /// Borrowed reference to an interned site — the dispatch fast path's
  /// copy-free accessor. Sites are immutable once interned and live in a
  /// deque, so the reference stays valid for the core's lifetime; the
  /// internal lock only orders the read against concurrent interning.
  const DispatchSite &siteRef(size_t Idx) const;
  size_t numSites() const;

  /// Finds or creates a dispatch site; returns its index. \p Created, if
  /// non-null, reports whether a new site was interned.
  uint32_t internSite(DispatchSite S, bool *Created = nullptr);

  // --- Specialization (caller-serialized) -------------------------------------

  /// THE specialization entry point: runs the generating extension for
  /// promotion point \p PromoId of region \p Ordinal into a fresh code
  /// chain and returns the published entry. \p BakedVals are the site's
  /// specialize-time values (may be empty for a native entry), \p KeyVals
  /// the promoted registers' current values; \p Key is the front end's
  /// cache key, stored on the entry for later unpublication. All three are
  /// views: they are copied into owned storage before the generating
  /// extension runs, so callers may pass scratch buffers that a nested
  /// dispatch (static calls at specialize time) would clobber. The entry's
  /// Point is the promo id; a front end with its own point numbering
  /// overwrites it before inserting.
  std::shared_ptr<SpecEntry> specializeInto(size_t Ordinal, vm::VM &M,
                                            uint32_t PromoId, WordSpan Key,
                                            WordSpan BakedVals,
                                            WordSpan KeyVals);

  /// Warm-start support: re-registers a chain whose emission was
  /// serialized by a prior process, skipping the generating-extension run.
  /// The core allocates a fresh simulated address range (restoring chains
  /// in their original creation-ordinal order therefore reproduces the
  /// original BaseAddrs) and registers the chain. The caller owns cache
  /// publication, as with specializeInto. Caller-serialized.
  std::shared_ptr<CodeChain>
  restoreChain(size_t Ordinal, std::vector<vm::Instr> Code,
               std::map<ir::BlockId, uint32_t> ExitStubs,
               std::map<uint32_t, uint32_t> DispatchStubs,
               std::map<ir::BlockId, uint32_t> OsrEntries);

  // --- Capacity + eviction (caller-serialized) --------------------------------

  /// Removes an entry from the front end's cache so the next dispatch on
  /// its key misses. Called by the core during capacity eviction, once per
  /// victim, before the victim's chain is marked evicted.
  using UnpublishFn = std::function<void(const SpecEntry &)>;

  /// Accounts the just-published \p E against its region's budget and
  /// evicts CLOCK victims (never \p E itself) until the region fits again.
  /// Victims are unpublished via \p Unpublish, their chains marked
  /// evicted, and the region's Evictions counter bumped.
  void admit(std::shared_ptr<SpecEntry> E, const UnpublishFn &Unpublish);

  /// The front end's cache displaced \p E on insert (one-slot or indexed
  /// same-slot replacement): drop it from the capacity book and mark its
  /// chain evicted. One-slot policies count this as a region eviction
  /// (cache_one mismatch replacement), matching the inline runtime's
  /// historical accounting.
  void displaced(const std::shared_ptr<SpecEntry> &E, ir::CachePolicy Policy);

  size_t residentEntries(size_t Ordinal) const;
  uint64_t residentInstrs(size_t Ordinal) const;

  // --- Chain lifecycle --------------------------------------------------------

  void releaseExecutor(const vm::CodeObject *CO) const {
    Chains.releaseExecutor(CO);
  }
  std::shared_ptr<CodeChain> findChain(const vm::CodeObject *CO) const {
    return Chains.find(CO);
  }
  /// Frees drained evicted chains; the caller must guarantee no client can
  /// be entering them (inline: between VM runs; server: dispatch gate).
  size_t collectChains() { return Chains.collect(*Shared); }
  size_t liveChains() const { return Chains.size(); }

  /// Retires an unpublished chain: marks it evicted so collection can free
  /// it once drained, and releases its shared translation. Front ends with
  /// their own publication books (the multi-tenant chain store) call this
  /// when the last reference drops; admit and displaced call it for the
  /// core's books. Caller-serialized.
  void retireChain(CodeChain &Chain);

  // --- Reporting --------------------------------------------------------------

  /// Disassembles every live chain of a region in creation order.
  std::string disassembleRegion(size_t Ordinal) const;

  /// Renders a region's generating extension (set-up/emit programs).
  std::string printRegion(size_t Ordinal, const ir::Module &Mod) const;

private:
  /// CLOCK book of resident entries for one region.
  struct RegionBook {
    std::vector<std::shared_ptr<SpecEntry>> Records;
    size_t Hand = 0; ///< CLOCK hand
    uint64_t Instrs = 0;
  };

  /// A fresh, not yet registered chain of region \p Ordinal with its code
  /// buffer opened: marked dynamic code, then given its simulated address
  /// range (the region code cap, so distinct chains' I-cache footprints
  /// never alias).
  std::shared_ptr<CodeChain> newChain(size_t Ordinal);

  bool overBudget(const RegionBook &B) const {
    return (Budget.MaxEntries && B.Records.size() > Budget.MaxEntries) ||
           (Budget.MaxInstrs && B.Instrs > Budget.MaxInstrs);
  }

  const ir::Module &M;
  vm::Program &Prog;
  OptFlags Flags;
  ChainBudget Budget;
  /// Translations of this core's chains, shared by every attached VM.
  std::shared_ptr<vm::SharedTranslations> Shared =
      std::make_shared<vm::SharedTranslations>();

  std::vector<std::unique_ptr<RegionState>> Regions;
  std::vector<RegionBook> Books; ///< parallel to Regions

  ChainRegistry Chains;
  std::atomic<uint64_t> ChainCounter{0};

  /// specializeHostSeconds bookkeeping (caller-serialized with
  /// specializeInto; depth gates out nested re-entrant runs).
  double SpecHostSecs = 0;
  unsigned SpecTimerDepth = 0;

  /// Deque, not vector: siteRef hands out long-lived references, and deque
  /// growth never relocates existing elements.
  std::deque<DispatchSite> Sites;
  /// Guards Sites: background specialization interns sites while client
  /// threads resolve them.
  mutable std::mutex SitesMutex;
};

/// Charges one dispatch's model-level cost under \p Policy — the paper's
/// section 2.2.3/4.4.3 numbers, shared by both front ends (and by the
/// inline-cached fast path, which must charge exactly what the probe it
/// short-circuited would have). \p Probes is the cache_all probe count
/// (memoized or fresh); \p KeyWords the full key length.
inline void chargeDispatchCost(vm::VM &M, ir::CachePolicy Policy,
                               size_t KeyWords, unsigned Probes) {
  const vm::CostModel &CM = M.costModel();
  switch (Policy) {
  case ir::CachePolicy::CacheAll:
    M.chargeExec(
        CM.hashedDispatchCost(static_cast<unsigned>(KeyWords), Probes));
    break;
  case ir::CachePolicy::CacheOne:
    M.chargeExec(CM.DispatchUnchecked + 2 * static_cast<unsigned>(KeyWords));
    break;
  case ir::CachePolicy::CacheOneUnchecked:
    M.chargeExec(CM.DispatchUnchecked);
    break;
  case ir::CachePolicy::CacheIndexed:
    M.chargeExec(CM.DispatchIndexed);
    break;
  }
}

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_REGIONEXEC_H
