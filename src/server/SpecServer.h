//===- server/SpecServer.h - Concurrent specialization service -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, capacity-bounded front end over the shared
/// RegionExecutionCore. The inline front end (runtime::DycRuntime driven
/// directly by one VM) is single-threaded: dispatch, specialization, and
/// cache mutation all happen on the one client's thread. The SpecServer
/// serves many client VMs concurrently over the same core:
///
///  * Dispatch: clients trap into the server; cache hits probe an
///    immutable published snapshot with no lock (ShardedCache) and jump
///    straight into generated code.
///  * Miss path: the miss becomes a SpecJob on a bounded queue, deduped
///    against in-flight jobs so concurrent misses on one key specialize
///    exactly once. The client either blocks on the job's future
///    (MissPolicy::Block) or immediately executes the statically compiled
///    version of the region (MissPolicy::Fallback) while the worker
///    specializes in the background.
///  * Specialization: a worker pool runs the generating extension on the
///    server's own VM (whose memory image must equal the clients' — the
///    workload Setup functions are deterministic for exactly this
///    reason). Every run emits into a fresh CodeChain, so published code
///    is immutable and eviction can never dangle a branch.
///  * Capacity: per-region entry/instruction budgets with CLOCK eviction
///    (the core's capacity books). Evicted chains drain via the VM's
///    onDynamicCodeExit callback before they are freed.
///
/// All specialization serializes on one recursive mutex: the generating
/// extension may re-enter the server (static calls at specialize time can
/// enter other regions), and a recursive lock turns that into an inline
/// nested specialization instead of a self-deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SERVER_SPECSERVER_H
#define DYC_SERVER_SPECSERVER_H

#include "bta/OptFlags.h"
#include "cogen/Lowering.h"
#include "runtime/RegionExec.h"
#include "server/ChainStore.h"
#include "server/ServerStats.h"
#include "server/ShardedCache.h"
#include "server/SpecJob.h"
#include "server/Tenant.h"
#include "tier/TierController.h"
#include "vm/VM.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace dyc {
namespace server {

/// What a client does on a cache miss.
enum class MissPolicy {
  Block,    ///< wait for the specialization worker's result
  Fallback, ///< run the statically compiled region; specialize in background
};

struct ServerConfig {
  unsigned NumWorkers = 2;
  size_t QueueCapacity = 64; ///< pending jobs before producers block
  MissPolicy OnMiss = MissPolicy::Block;
  CapacityBudget Budget; ///< per-region generated-code bounds (0 = unbounded)
  /// Applied to the server's specialization VM at construction and to
  /// every VM from makeClientVM(). Must be deterministic: specialize-time
  /// static loads read the server VM's memory, so its image must be
  /// bit-identical to the clients'.
  std::function<void(vm::VM &)> MemoryImage;
  vm::CostModel CM;
  vm::ICacheConfig IC;
  /// Test hook: while the pointee is true, workers hold popped jobs
  /// without specializing them. Lets tests pin a compile in flight and
  /// observe the fallback/OSR machinery deterministically. Null (the
  /// default) means never hold.
  std::shared_ptr<std::atomic<bool>> HoldCompiles;

  /// Multi-tenancy (server/Tenant.h). When set, dispatch resolves the
  /// client VM's Tenant id to that tenant's cache view, publications are
  /// deduplicated across tenants through the content-addressed chain
  /// store, Quota governs per-tenant admission and residency, and the
  /// server-wide Budget above is unused (the tenant books replace the
  /// core's capacity book). Tiering does not compose with multi-tenancy —
  /// per-tenant heat parity is future work — so the constructor disables
  /// it.
  bool MultiTenant = false;
  TenantQuota Quota;
  /// Warm-start file (multi-tenant only): if non-empty, the constructor
  /// loads the chain store from it (silently skipping a missing or
  /// version-mismatched file) and the destructor serializes the store
  /// back to it after the workers quiesce.
  std::string WarmStartPath;
};

/// The service. Construct from a compiled module; make client VMs; run
/// them from any threads. The module must outlive the server.
class SpecServer : public vm::RuntimeHook {
public:
  SpecServer(const ir::Module &M, const OptFlags &Flags, ServerConfig Cfg);
  ~SpecServer() override;

  SpecServer(const SpecServer &) = delete;
  SpecServer &operator=(const SpecServer &) = delete;

  /// A fresh VM over the shared program, hooked to this server, with the
  /// configured memory image applied. Callable from any thread. On a
  /// multi-tenant server \p TenantId names the tenant whose cache view
  /// the VM dispatches through; the tenant is registered here (before any
  /// dispatch can name it), so the dispatch path never creates tenants.
  std::unique_ptr<vm::VM> makeClientVM(uint32_t TenantId);
  std::unique_ptr<vm::VM> makeClientVM() { return makeClientVM(0); }

  int findFunction(const std::string &Name) const {
    return Prog.findFunction(Name);
  }
  /// Region ordinal of function \p Name, or -1 if unannotated.
  int regionOrdinalOf(const std::string &Name) const;
  size_t numRegions() const { return Core.numRegions(); }

  // RuntimeHook:
  Target dispatch(vm::VM &M, int64_t PointId,
                  std::vector<Word> &Regs) override;
  void onDynamicCodeExit(vm::VM &M, const vm::CodeObject *CO) override;
  /// Back-edge OSR poll from a client spinning in fallback code: if the
  /// watched key's chain has been published (with a residual pc for the
  /// watched loop head), transfers the frame into it mid-loop. Does not
  /// re-enter the VM. Charges the client the normal dispatch-probe cost
  /// only when a transfer happens.
  Target onOsrPoll(vm::VM &M, uint64_t Token,
                   std::vector<Word> &Regs) override;
  void onOsrDrop(vm::VM &M, uint64_t Token) override;

  /// Blocks until the job queue is empty and no worker is mid-job.
  void drain();

  /// Reclaims retired cache snapshots and drained evicted chains. Refuses
  /// (returns false) if any dispatch is in flight — reclamation requires
  /// quiescence. Outputs are optional counts.
  bool trimQuiescent(size_t *SnapshotsFreed = nullptr,
                     size_t *ChainsFreed = nullptr);

  ServerStatsSnapshot stats() const {
    ServerStatsSnapshot S = St.snapshot();
    S.SnapshotsRetired = Cache.retiredSnapshots(); // currently in graveyard
    S.CompileQueueDepth = Queue.pending();
    if (Tier) {
      S.TierEnabled = true;
      tier::TierCounters T = Tier->totals();
      S.ColdExecs = T.ColdExecs;
      S.WarmExecs = T.WarmExecs;
      S.WarmPromotions = T.WarmPromotions;
      S.HotPromotions = T.HotPromotions;
      S.HotInstalls = T.HotInstalls;
      S.OsrEntries = T.OsrEntries;
      S.OsrPolls = T.OsrPolls;
    } else {
      // Untiered servers report hard zeros: the tier block above is the
      // only writer of these fields, so force them rather than trusting
      // whatever path produced the snapshot (regression-tested).
      S.TierEnabled = false;
      S.ColdExecs = S.WarmExecs = S.WarmPromotions = S.HotPromotions = 0;
      S.HotInstalls = S.OsrEntries = S.OsrPolls = 0;
    }
    {
      // Plan counters live in the core's per-region stats (single-threaded,
      // guarded by the specialization lock), so sum them under it.
      std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
      for (size_t I = 0; I != Core.numRegions(); ++I) {
        const runtime::RegionStats &RS = Core.stats(I);
        if (RS.PlanEnabled)
          S.PlanEnabled = true;
        S.PlanBuilds += RS.PlanBuilds;
        S.PlanHits += RS.PlanHits;
        S.PlanBytes += RS.PlanBytes;
      }
      if (!S.PlanEnabled) {
        // The plan path is the only writer of these fields; report hard
        // zeros when it is off (same contract as the tier block above).
        S.PlanBuilds = S.PlanHits = S.PlanBytes = 0;
      }
    }
    if (Cfg.MultiTenant) {
      S.MultiTenant = true;
      std::shared_lock<std::shared_mutex> L(TenantsMutex);
      S.Tenants = Tenants.size();
      S.StoreChains = Store.size();
    }
    return S;
  }

  /// One tenant's view of the server, from its own ledger: the counters a
  /// dedicated single-tenant server replaying the tenant's workload would
  /// report. SpecRuns/ChainsCreated count adoptions too (the dedicated
  /// server would have compiled); DedupHits/WarmHits record how many of
  /// those were served from the store, and ChainsCollected stays global
  /// (a shared chain is only freed when every tenant has dropped it).
  /// Zeroes if the tenant was never registered.
  ServerStatsSnapshot tenantStats(uint32_t TenantId) const;

  size_t numTenants() const {
    std::shared_lock<std::shared_mutex> L(TenantsMutex);
    return Tenants.size();
  }
  /// Chains resident in the cross-tenant store (multi-tenant only).
  size_t storeChains() const { return Store.size(); }
  /// Interned dispatch sites (thread-safe).
  size_t numSites() const { return Core.numSites(); }
  /// Entries in the core's shared translation table (thread-safe).
  size_t sharedTranslations() const { return Core.sharedTranslations(); }

  /// Serializes the chain store to \p Path (multi-tenant only; call at
  /// quiescence — after drain(), with no client mid-run). Returns false
  /// on I/O failure or on a single-tenant server.
  bool saveCacheTo(const std::string &Path) const;
  /// Loads a chain store serialized by saveCacheTo into this server.
  /// Multi-tenant only, and only before any specialization has happened
  /// (the site table must be empty so the file's interned dispatch sites
  /// replay at their original indices). Validates the checksum, format
  /// version, instruction encoding, module fingerprint, OptFlags
  /// fingerprint, every region/promotion reference, every entry and stub
  /// PC, and in chain code every opcode, branch target, dispatch site and
  /// exit offset; rejects duplicate sites and chains. Returns false —
  /// loading nothing — on any failure. Loaded chains enter the store
  /// unreferenced; tenants adopt them on first miss (counted as WarmHits).
  bool loadCacheFrom(const std::string &Path);

  /// The tiering controller, or null when tiering is off.
  const tier::TierController *tierController() const { return Tier.get(); }

  /// Copy of the core's per-region specializer counters.
  runtime::RegionStats regionStats(size_t Ordinal) const;
  size_t residentEntries(size_t Ordinal) const;
  uint64_t residentInstrs(size_t Ordinal) const;
  size_t liveChains() const { return Core.liveChains(); }
  size_t retiredSnapshots() const { return Cache.retiredSnapshots(); }
  /// Disassembles a region's live code chains in creation order —
  /// bit-identical to the inline front end's dump for the same workload,
  /// since both render the core's chains.
  std::string disassembleRegion(size_t Ordinal) const;
  /// Cycles the server spent specializing (its VM's dynamic-compilation
  /// account); the per-client cost of a hit is charged to the client.
  uint64_t specOverheadCycles() const;

private:
  /// Specializes (point, key) and publishes the result, rechecking the
  /// cache first. Runs under SpecMutex; reentrant for nested misses.
  std::shared_ptr<CacheRecord>
  specializeAndPublish(uint32_t Ord, uint32_t PromoId, size_t Point,
                       const std::vector<Word> &Key,
                       const std::vector<Word> &BakedVals,
                       const std::vector<Word> &KeyVals);

  // --- Multi-tenant path (all no-ops unless Cfg.MultiTenant) ------------------

  /// Finds or registers tenant \p Id (exclusive lock on miss).
  TenantState &tenantState(uint32_t Id);
  /// Shared-lock probe; null for unregistered tenants.
  TenantState *findTenant(uint32_t Id) const;

  /// The multi-tenant miss/hit continuation of dispatch(): per-tenant
  /// cache probe, quota admission, job submission against the tenant's
  /// in-flight gauge, and the Block/Fallback miss policies — mirroring
  /// the single-tenant control flow so the tenant ledger stays
  /// bit-identical to a dedicated server's.
  Target dispatchTenant(vm::VM &ClientVM, TenantState &TS, uint32_t Ord,
                        uint32_t PromoId, const bta::PromoPoint &P,
                        size_t Point, WordSpan Key, size_t BakedWords,
                        std::vector<Word> &Regs, uint64_t Now);

  /// The multi-tenant twin of specializeAndPublish: consults the chain
  /// store first and adopts a deduplicated chain when one exists,
  /// otherwise runs the generating extension and registers the result;
  /// publishes into the tenant's cache view and runs the tenant's CLOCK
  /// book. Under SpecMutex; reentrant for nested misses.
  std::shared_ptr<CacheRecord>
  specializeAndPublishTenant(TenantState &TS, uint32_t Ord, uint32_t PromoId,
                             size_t Point, const std::vector<Word> &Key,
                             const std::vector<Word> &BakedVals,
                             const std::vector<Word> &KeyVals);

  /// Tenant mirror of Core.admit: accounts \p E against the tenant's
  /// per-region budget and CLOCK-evicts victims from the tenant's cache,
  /// releasing each victim's store reference. Under SpecMutex.
  void tenantAdmit(TenantState &TS, std::shared_ptr<CacheRecord> E);
  /// Tenant mirror of Core.displaced for one-slot/indexed replacement.
  void tenantDisplaced(TenantState &TS,
                       const std::shared_ptr<CacheRecord> &E);
  /// Drops one store reference from \p Chain; retires the chain (marks it
  /// evicted, releases its shared translation) when the last tenant lets
  /// go. Collection still waits for active executors at the safe point.
  void releaseStoreRef(const CodeChain *Chain);

  /// Hands out a chain for execution, counting the executor in. With
  /// \p ClientVM set (the multi-tenant path), the first entry of an
  /// adopted record invalidates the chain's I-cache range in that client
  /// so deduplication stays invisible — see EntryStats::ColdEntryPending.
  Target enterChain(const CacheRecord &Rec, vm::VM *ClientVM = nullptr);
  Target fallbackTarget(uint32_t Ord, const bta::PromoPoint &P,
                        std::vector<Word> &Regs,
                        const std::vector<Word> &BakedVals);
  /// Arms one OSR watch per loop head of region \p Ord on the client's
  /// current (fallback) frame, keyed to the missed cache entry. Called
  /// from dispatch on a tiered hot-tier async miss.
  void armOsrWatches(vm::VM &ClientVM, uint32_t Ord, uint32_t PromoId,
                     size_t Point, const std::vector<Word> &Key);
  void workerLoop();

  const ir::Module &M;
  OptFlags Flags;
  ServerConfig Cfg;

  vm::Program Prog; ///< shared by the server VM and every client VM
  std::vector<cogen::LoweredFunction> Lowered;
  std::vector<int> AnnotatedOrdinal; ///< function index -> region ordinal

  /// Statically compiled copy of the module (regions ignored) for the
  /// fallback miss path. Lowered at a disjoint simulated address base so
  /// the I-cache model doesn't alias the two programs.
  vm::Program FallbackProg;
  std::vector<cogen::LoweredFunction> FallbackLowered;

  /// The shared core: code chains, the generating-extension walk,
  /// region stats, dispatch sites, capacity books. Constructed over Prog
  /// before lowering runs; regions are registered in the ctor body.
  runtime::RegionExecutionCore Core;
  std::unique_ptr<vm::VM> SpecVM; ///< runs generating extensions; under SpecMutex
  std::vector<size_t> PointBase;  ///< region ordinal -> first cache point

  ShardedCache Cache;
  JobQueue Queue;
  std::vector<std::thread> Workers;

  /// Serializes all specialization (workers and nested re-entry).
  mutable std::recursive_mutex SpecMutex;
  /// Readers hold this shared for the duration of a dispatch; reclamation
  /// try-locks it exclusively, so it only proceeds at quiescence.
  std::shared_mutex DispatchGate;

  std::atomic<uint64_t> Tick{0}; ///< global dispatch clock (recency)
  std::mutex DrainMutex;
  std::condition_variable DrainCV;

  /// Tiering (null unless OptFlags::Tier.Enabled): classifies misses and
  /// owns the transition counters.
  std::unique_ptr<tier::TierController> Tier;
  /// Region ordinal -> (loop-head block, its pc in the fallback lowering).
  /// Computed once at construction when tiering is on; the OSR watches a
  /// hot miss arms come from this table.
  std::vector<std::vector<std::pair<ir::BlockId, uint32_t>>> RegionLoopHeads;

  /// One armed OSR watch: which cache entry the spinning fallback frame
  /// is waiting for, and which loop head it spins at.
  struct OsrRecord {
    size_t Point = 0;
    std::vector<Word> Key;
    uint32_t Ord = 0;
    uint32_t PromoId = 0;
    ir::BlockId HeadBlock = 0;
    uint64_t Polls = 0;
  };
  std::mutex OsrMutex; ///< guards OsrTable (lock order: gate, then this)
  std::map<uint64_t, OsrRecord> OsrTable;
  std::atomic<uint64_t> OsrTokens{0};

  // --- Multi-tenancy ----------------------------------------------------------

  /// Registered tenants. Deque: TenantState is not movable and dispatch
  /// holds references across the shared lock. Guarded by TenantsMutex
  /// (registration exclusive, dispatch-time resolution shared).
  mutable std::shared_mutex TenantsMutex;
  std::deque<TenantState> Tenants;
  std::map<uint32_t, TenantState *> TenantIndex;

  /// The cross-tenant content-addressed chain store; mutated only under
  /// SpecMutex (publication, tenant eviction, warm-start load).
  ChainStore Store;
  /// Per-region content hash (generic lowered code + shape), the "region
  /// version" component of the dedup key and of the warm-start module
  /// fingerprint. Computed once at construction.
  std::vector<uint64_t> RegionContentHash;
  uint64_t FlagsFingerprint = 0;

  ServerStats St;
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SPECSERVER_H
