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
/// the run-time statistics, the specialize-time static-call memo and the
/// dispatch-site table. It owns globally: the chain registry that keeps
/// evicted chains alive until their executor count drains to zero. The
/// count lives on the chain, and its code object points at it
/// (vm::CodeObject::Executors): a front end counts a client in where it
/// grants entry, and the VM counts the frame out where it leaves, so no
/// exit path looks the chain up. It also writes the one CLOCK sweep
/// (admit) over a residency book the caller passes in: the inline front
/// end's book lives in the core, and every SpecServer tenant view holds
/// its own.
///
/// What the core does NOT own is the dispatch cache, though both front
/// ends use the same one (runtime/CodeCache.h, one per promotion point):
/// the inline runtime mutates its caches in place, and the server
/// publishes copy-on-write copies that clients probe without a lock
/// (server/ShardedCache.h). Each front end tells the core about
/// displacements so eviction bookkeeping stays identical, and retires its
/// victims' chains itself.
///
/// Concurrency contract: specializeInto / admit / displaced and the
/// resident/disassembly accessors must be serialized by the caller (the
/// server holds its specialization lock; the inline runtime is
/// single-threaded). internSite / siteRef and the chain registry are
/// internally thread-safe — clients resolve sites while workers
/// specialize — and a chain's executor count and an entry's usage bits
/// are atomics that clients write without a lock.
///
/// Interaction with the VM's predecoded translation cache: translations
/// are keyed by CodeObject::BaseAddr, and Program::allocCodeAddr never
/// reuses an address, so a freed chain's stale translation can never be
/// reached through a newly published chain. The core owns the front end's
/// SharedTranslations table: every VM it attaches publishes the
/// translations it builds of chains and adopts those of other VMs, and
/// retireChain releases a chain's entry — eager reclamation for all front
/// ends, including the server, whose client VMs the core cannot reach. A
/// front end that unpublishes a chain (admit's eviction callback, one-slot
/// displacement) should also call VM::invalidateDecoded on its own VM, so
/// the VM's cache does not pin memory for code the registry is about to
/// free; the VM additionally revalidates every translation against
/// (Code.size(), Version) when it enters a code object, which is what
/// makes the specializer's rewrites (branch patching through
/// Concrete::at, which bumps Version) safe even without eager
/// invalidation.
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
  /// Frames currently executing inside CO; CO.Executors points here.
  std::atomic<uint32_t> ActiveRefs{0};
  /// Set (under the owner's serialization) when the chain's cache entry is
  /// removed — by capacity eviction or one-slot displacement.
  std::atomic<bool> Evicted{false};
  uint64_t Ordinal = 0; ///< creation order across all regions
  uint32_t Region = 0;  ///< owning region ordinal
  uint32_t Instrs = 0;  ///< CO.Code.size() at publication
};

/// Every live chain, kept alive until collect frees it. Neither dispatch
/// nor exit touches the registry: only registration, collection and the
/// reporting accessors take its lock.
class ChainRegistry {
public:
  void add(std::shared_ptr<CodeChain> Chain);

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
  mutable std::mutex Mutex;
  std::vector<std::shared_ptr<CodeChain>> Chains;
};

/// One published specialization: key -> (chain, entry PC). This is the
/// unit the dispatch caches store and the capacity book evicts.
struct SpecEntry {
  std::vector<Word> Key;
  uint64_t Hash = 0;
  size_t Point = 0;     ///< front-end cache point (server: global point id)
  uint32_t Region = 0;  ///< owning region ordinal
  uint32_t PromoId = 0; ///< promotion point within the region
  uint32_t EntryPC = 0; ///< entry offset within Chain->CO
  std::shared_ptr<CodeChain> Chain;
  uint64_t Ordinal = 0; ///< == Chain->Ordinal
  // The usage bits below are the entry's only state that changes after
  // publication. Clients write them through the const entries the caches
  // hand out, hence mutable.
  /// CLOCK reference bit, set by the clients that enter the entry.
  mutable std::atomic<bool> RefBit{false};
  /// Adoption marker: the entry was published over a chain from the
  /// server's chain store instead of a fresh generating-extension run. The
  /// first client to enter it invalidates the chain's range in its
  /// I-cache, so an adopted chain the client executed in an earlier
  /// residency models as cold code — exactly what the fresh compile a
  /// dedicated server would have produced looks like.
  mutable std::atomic<bool> ColdEntryPending{false};
};

/// The CLOCK residency book of one cache view: per region, the entries
/// resident in the view, the CLOCK hand and their emitted instructions,
/// bounded by one budget. RegionExecutionCore::admit and displaced are
/// its only writers, under the caller's serialization.
struct ResidencyBook {
  struct Region {
    std::vector<std::shared_ptr<SpecEntry>> Records;
    size_t Hand = 0; ///< CLOCK hand
    uint64_t Instrs = 0;
  };
  ChainBudget Budget;
  std::vector<Region> Regions; ///< by region ordinal, grown on first admit

  size_t entries(size_t Ordinal) const {
    return Ordinal < Regions.size() ? Regions[Ordinal].Records.size() : 0;
  }
  uint64_t instrs(size_t Ordinal) const {
    return Ordinal < Regions.size() ? Regions[Ordinal].Instrs : 0;
  }
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
  /// eviction and CodeObject::Version churn.
  std::shared_ptr<cogen::EmitPlan> Plan;
  /// Memo for static calls executed at specialize time.
  std::map<std::vector<uint64_t>, Word> CallMemo;
  /// "<function>.chain" — cached so per-chain naming is one append, not a
  /// chain of temporaries on the specialization path.
  std::string ChainNamePrefix;
  /// Per-context placement counts (unrolling evidence).
  std::vector<uint32_t> CtxPlacements;
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
  /// \p Budget bounds the inline front end's residency book (book()).
  RegionExecutionCore(const ir::Module &M, vm::Program &Prog,
                      const OptFlags &Flags, ChainBudget Budget = {})
      : M(M), Prog(Prog), Flags(Flags), Book{Budget, {}} {}

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

  const RegionStats &stats(size_t Ordinal) const;
  RegionStats &statsMutable(size_t Ordinal);

  // --- Dispatch sites (thread-safe) -------------------------------------------

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

  /// Called once per CLOCK victim, after the victim has left the book: the
  /// front end unpublishes it from its cache so the next dispatch on its
  /// key misses, then retires its chain (retireChain) or drops its
  /// reference to a shared one.
  using EvictFn = std::function<void(const SpecEntry &)>;

  /// The CLOCK sweep. Accounts the just-published \p E in \p B and evicts
  /// victims (never \p E itself) until E's region fits B's budget again.
  /// Each victim leaves the book, is counted in its region's Evictions,
  /// and is handed to \p Evict.
  void admit(ResidencyBook &B, std::shared_ptr<SpecEntry> E,
             const EvictFn &Evict);

  /// The front end's cache displaced \p E on insert (one-slot or indexed
  /// same-slot replacement): drop it from \p B. One-slot policies count
  /// this as a region eviction (cache_one mismatch replacement), matching
  /// the inline runtime's historical accounting. The caller retires the
  /// chain, as for an admit victim.
  void displaced(ResidencyBook &B, const SpecEntry &E, ir::CachePolicy Policy);

  /// The inline front end's residency book. A SpecServer keeps one book
  /// per tenant view instead and leaves this one empty.
  ResidencyBook &book() { return Book; }
  size_t residentEntries(size_t Ordinal) const { return Book.entries(Ordinal); }
  uint64_t residentInstrs(size_t Ordinal) const { return Book.instrs(Ordinal); }

  // --- Chain lifecycle --------------------------------------------------------

  /// Frees drained evicted chains; the caller must guarantee no client can
  /// be entering them (inline: between VM runs; server: dispatch gate).
  size_t collectChains() { return Chains.collect(*Shared); }
  size_t liveChains() const { return Chains.size(); }

  /// Retires an unpublished chain: marks it evicted so collection can free
  /// it once drained, and releases its shared translation. The inline
  /// front end calls this for its evicted and displaced entries; the
  /// server, when a chain's last chain-store reference drops.
  /// Caller-serialized.
  void retireChain(CodeChain &Chain);

  // --- Reporting --------------------------------------------------------------

  /// Disassembles every live chain of a region in creation order.
  std::string disassembleRegion(size_t Ordinal) const;

  /// Renders a region's generating extension (set-up/emit programs).
  std::string printRegion(size_t Ordinal, const ir::Module &Mod) const;

private:
  /// A fresh, not yet registered chain of region \p Ordinal with its code
  /// buffer opened: marked dynamic code, pointed at the chain's executor
  /// count, then given its simulated address range (the region code cap,
  /// so distinct chains' I-cache footprints never alias).
  std::shared_ptr<CodeChain> newChain(size_t Ordinal);

  const ir::Module &M;
  vm::Program &Prog;
  OptFlags Flags;
  ResidencyBook Book; ///< the inline front end's
  /// Translations of this core's chains, shared by every attached VM.
  std::shared_ptr<vm::SharedTranslations> Shared =
      std::make_shared<vm::SharedTranslations>();

  std::vector<std::unique_ptr<RegionState>> Regions;

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
