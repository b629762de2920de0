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
///  * Tenant views: every client VM belongs to a tenant (makeClientVM(),
///    without an id, to the default tenant 0) and dispatches through that
///    tenant's view (server/Tenant.h): its own cache, ledger, residency
///    book and admission gauge. A single-tenant server is the case where
///    every client is tenant 0; there is no other path.
///  * Dispatch: clients trap into the server; cache hits probe the view's
///    immutable published copy of the inline runtime's CodeCache with no
///    lock (ShardedCache) and jump straight into generated code.
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
///    is immutable and eviction can never dangle a branch. Publication
///    goes through the content-addressed ChainStore, so a tenant missing
///    on a key another tenant (or a warm-start file) already compiled
///    adopts that chain instead of recompiling.
///  * Capacity: per-view, per-region entry/instruction budgets
///    (ServerConfig::Budget) with the core's CLOCK sweep. An evicted
///    chain is freed at the trimQuiescent safe point once its executor
///    count, which clients leaving the chain decrement in the VM, drains.
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
  /// Per-region generated-code bounds of each tenant view (0 = unbounded).
  CapacityBudget Budget;
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

  /// Per-tenant admission (server/Tenant.h).
  TenantQuota Quota;
  /// Warm-start file: if non-empty, the constructor loads the chain store
  /// from it (silently skipping a missing or version-mismatched file) and
  /// the destructor serializes the store back to it after the workers
  /// quiesce.
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
  /// configured memory image applied. Callable from any thread.
  /// \p TenantId names the tenant whose view the VM dispatches through
  /// (0, the default view, without one); the tenant is registered here
  /// and its view stored on the VM, so dispatch never looks tenants up.
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
  bool trimQuiescent(size_t *SnapsFreed = nullptr,
                     size_t *ChainsFreed = nullptr);

  /// Server-wide figures, derived from the tenant ledgers: sums, except
  /// that `runs` and `chains` leave out the adoptions (`dedup`), so they
  /// count generating-extension runs; `collected` and the gauges are
  /// server-wide.
  ServerStatsSnapshot stats() const;

  /// One tenant's view of the server, from its own ledger: the counters a
  /// dedicated single-tenant server replaying the tenant's workload would
  /// report. `runs` and `chains` count adoptions too (the dedicated
  /// server would have compiled); `dedup` and `warm` record how many of
  /// those were served from the store, and `collected` stays global
  /// (a shared chain is only freed when every tenant has dropped it).
  /// Zeroes if the tenant was never registered.
  ServerStatsSnapshot tenantStats(uint32_t TenantId) const;

  /// Chains resident in the cross-tenant store.
  size_t storeChains() const { return Store.size(); }
  /// Interned dispatch sites (thread-safe).
  size_t numSites() const { return Core.numSites(); }
  /// Entries in the core's shared translation table (thread-safe).
  size_t sharedTranslations() const { return Core.sharedTranslations(); }

  /// Serializes the chain store to \p Path (call at quiescence — after
  /// drain(), with no client mid-run). Returns false on I/O failure.
  bool saveCacheTo(const std::string &Path) const;
  /// Loads a chain store serialized by saveCacheTo into this server, only
  /// before any specialization has happened (the site table must be
  /// empty so the file's interned dispatch sites replay at their original
  /// indices). Validates the checksum, format version, instruction
  /// encoding, module fingerprint, OptFlags fingerprint, every
  /// region/promotion reference, every entry and stub PC, and in chain
  /// code every opcode, register operand, branch target, dispatch site
  /// and exit offset; rejects duplicate sites and chains. Returns false —
  /// loading nothing — on any failure. Loaded chains enter the store
  /// unreferenced; tenants adopt them on first miss (counted in `warm`).
  bool loadCacheFrom(const std::string &Path);

  /// The tiering controller, or null when tiering is off.
  const tier::TierController *tierController() const { return Tier.get(); }

  /// Copy of the core's per-region specializer counters.
  runtime::RegionStats regionStats(size_t Ordinal) const;
  /// Entries (and their emitted instructions) resident in region
  /// \p Ordinal, summed over the tenant views' books.
  size_t residentEntries(size_t Ordinal) const;
  uint64_t residentInstrs(size_t Ordinal) const;
  size_t liveChains() const { return Core.liveChains(); }
  /// Disassembles a region's live code chains in creation order —
  /// bit-identical to the inline front end's dump for the same workload,
  /// since both render the core's chains.
  std::string disassembleRegion(size_t Ordinal) const;
  /// Cycles the server spent specializing (its VM's dynamic-compilation
  /// account); the per-client cost of a hit is charged to the client.
  uint64_t specOverheadCycles() const;

private:
  /// Specializes (point, key) for tenant view \p TS and publishes the
  /// result into it, rechecking the view's cache first. Consults the
  /// chain store before compiling and adopts a stored chain when one
  /// exists; otherwise runs the generating extension and stores the
  /// result. Then runs the view's CLOCK book. Under SpecMutex; reentrant
  /// for nested misses.
  std::shared_ptr<CacheRecord>
  specializeAndPublish(TenantState &TS, uint32_t Ord, uint32_t PromoId,
                       size_t Point, const std::vector<Word> &Key,
                       const std::vector<Word> &BakedVals,
                       const std::vector<Word> &KeyVals);

  /// Finds or registers tenant \p Id.
  TenantState &tenantState(uint32_t Id);
  /// Shared-lock probe; null for unregistered tenants.
  TenantState *findTenant(uint32_t Id) const;
  /// The view a dispatching VM belongs to: the one makeClientVM stored on
  /// a client, or, on the server's own VM, the view the running
  /// specialization publishes for.
  static TenantState &viewOf(vm::VM &M) {
    assert(M.HookClient && "dispatch from a VM of no tenant");
    return *static_cast<TenantState *>(M.HookClient);
  }

  /// Drops \p Rec's store reference to its chain; retires the chain
  /// (marks it evicted, releases its shared translation) when the last
  /// view lets go. Collection still waits for active executors at the
  /// safe point.
  void releaseStoreRef(const CacheRecord &Rec);

  /// Hands out a chain for execution, counting the executor in. The
  /// first entry of an adopted record invalidates the chain's I-cache
  /// range in \p ClientVM so deduplication stays invisible — see
  /// SpecEntry::ColdEntryPending.
  Target enterChain(const CacheRecord &Rec, vm::VM &ClientVM);
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
  /// region stats, dispatch sites. Constructed over Prog before lowering
  /// runs; regions are registered in the ctor body.
  runtime::RegionExecutionCore Core;
  /// Runs generating extensions, under SpecMutex. Its HookClient names
  /// the view the running specialization publishes for, so a nested miss
  /// publishes there, as a dedicated server's would into its only cache.
  std::unique_ptr<vm::VM> SpecVM;
  std::vector<size_t> PointBase;  ///< region ordinal -> first cache point

  JobQueue Queue;
  std::vector<std::thread> Workers;

  /// Serializes all specialization (workers and nested re-entry).
  mutable std::recursive_mutex SpecMutex;
  /// Readers hold this shared for the duration of a dispatch; reclamation
  /// try-locks it exclusively, so it only proceeds at quiescence.
  std::shared_mutex DispatchGate;

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

  // --- Tenants ----------------------------------------------------------------

  /// Registered tenants. Deque: TenantState is not movable and client VMs
  /// hold pointers to their views. Guarded by TenantsMutex (registration
  /// exclusive, enumeration shared).
  mutable std::shared_mutex TenantsMutex;
  std::deque<TenantState> Tenants;
  std::map<uint32_t, TenantState *> TenantIndex;

  /// The cross-tenant content-addressed chain store; mutated only under
  /// SpecMutex (publication, eviction, warm-start load).
  ChainStore Store;
  /// Per-region content hash (generic lowered code + shape), the "region
  /// version" component of the dedup key and of the warm-start module
  /// fingerprint. Computed once at construction.
  std::vector<uint64_t> RegionContentHash;
  uint64_t FlagsFingerprint = 0;

  /// Evicted chains freed at the safe point (server-wide: a freed chain
  /// may have been shared by several tenants).
  std::atomic<uint64_t> ChainsCollected{0};
};

} // namespace server
} // namespace dyc

#endif // DYC_SERVER_SPECSERVER_H
