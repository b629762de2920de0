//===- runtime/UnrollDriver.h - Memoized polyvariant walk -------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top layer of the specializer: one invocation of the dynamic
/// compiler. Drives a memoized worklist over (context, static-values)
/// pairs — polyvariant specialization. Re-reaching a pair emits a jump to
/// the existing code, which is what terminates and shapes complete loop
/// unrolling: a simple counted loop unrolls into a linear chain; loops
/// whose iterations diverge produce a directed graph of unrolled bodies
/// (multi-way unrolling, paper section 2.2.4).
///
/// The driver executes set-up programs (static evaluation, static loads,
/// memoized static calls), hands planned dynamic instructions to the
/// DeferralEngine, lays out blocks with fall-through chaining, patches
/// forward branches once targets are placed, and interns run-time dispatch
/// sites through the RegionExecutionCore.
///
/// One driver emits one code chain. It holds no state that outlives the
/// run; everything shared across runs lives in RegionState / the core.
/// The chain buffer the driver fills was opened by the core, which
/// registers the finished emission — code plus the stub maps — once the
/// run returns.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_UNROLLDRIVER_H
#define DYC_RUNTIME_UNROLLDRIVER_H

#include "runtime/Deferral.h"
#include "runtime/Emitter.h"
#include "runtime/PlanRunner.h"
#include "runtime/RegionExec.h"

#include <algorithm>
#include <deque>
#include <optional>

namespace dyc {
namespace runtime {

/// Plan-mode memoization table: open-addressed with linear probing,
/// power-of-two sized, keys interned into a flat word pool, hashes stored
/// per slot. One hash and one probe per operation, no per-node
/// allocation, bulk-freed through the run's scratch arena. Host-only
/// machinery — key composition and lookup never charge the simulated
/// cost model, so swapping the container is invisible to every counter.
///
/// Value slots live in a chunked store, so the returned value pointers
/// stay valid for the driver's lifetime even as the slot array rehashes.
/// Work items and branch patches hold them as direct handles, which lets
/// placement and patch resolution skip key recomposition entirely.
class PlanMemo {
public:
  explicit PlanMemo(BumpArena &A)
      : Slots(ArenaAllocator<Slot>(A)), Pool(ArenaAllocator<uint64_t>(A)),
        Values(ArenaAllocator<int64_t>(A)) {
    Slots.resize(64);
  }

  int64_t *find(const uint64_t *K, size_t N, uint64_t H) {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (!S.Used)
        return nullptr;
      if (S.H == H && S.Len == N &&
          std::equal(K, K + N, Pool.data() + S.Off))
        return S.V;
    }
  }

  /// Returns the value slot for the key, inserting an uninitialized slot
  /// if absent; \p Fresh reports whether the insert happened.
  int64_t *findOrInsert(const uint64_t *K, size_t N, uint64_t H,
                        bool &Fresh) {
    if ((Count + 1) * 4 > Slots.size() * 3)
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (!S.Used) {
        S.Used = true;
        S.H = H;
        S.Off = static_cast<uint32_t>(Pool.size());
        S.Len = static_cast<uint32_t>(N);
        Pool.insert(Pool.end(), K, K + N);
        Values.push_back(0);
        S.V = &Values.back();
        ++Count;
        Fresh = true;
        return S.V;
      }
      if (S.H == H && S.Len == N &&
          std::equal(K, K + N, Pool.data() + S.Off)) {
        Fresh = false;
        return S.V;
      }
    }
  }

  static uint64_t hashWords(const uint64_t *K, size_t N) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (size_t I = 0; I != N; ++I) {
      H ^= K[I];
      H *= 1099511628211ull;
    }
    return H;
  }

private:
  struct Slot {
    uint64_t H = 0;
    int64_t *V = nullptr; ///< into Values: survives slot-array rehashes
    uint32_t Off = 0;
    uint32_t Len = 0;
    bool Used = false;
  };

  void grow() {
    std::vector<Slot, ArenaAllocator<Slot>> Next(Slots.get_allocator());
    Next.resize(Slots.size() * 2);
    const size_t Mask = Next.size() - 1;
    for (const Slot &S : Slots) {
      if (!S.Used)
        continue;
      size_t I = S.H & Mask;
      while (Next[I].Used)
        I = (I + 1) & Mask;
      Next[I] = S;
    }
    Slots = std::move(Next);
  }

  std::vector<Slot, ArenaAllocator<Slot>> Slots;
  std::vector<uint64_t, ArenaAllocator<uint64_t>> Pool;
  std::deque<int64_t, ArenaAllocator<int64_t>> Values; ///< stable addresses
  size_t Count = 0;
};

class UnrollDriver {
public:
  /// Emits into \p Buf with this run's own stub maps. The caller (the
  /// core's specializeInto) passes a fresh chain buffer and fresh maps, so
  /// every run is a self-contained, immutable-after-publication chain.
  /// \p Scratch backs the run's worklist, memo table, and patch list; the
  /// caller opens a BumpArena::Scope around the driver's lifetime so the
  /// memory is reclaimed in bulk when the run finishes.
  /// \p Plan, when non-null, is the region's staged emit plan: block
  /// set-up programs execute through the PlanRunner (with legacy
  /// fallbacks per Generic step), a context's block program is built
  /// under \p Flags on its first placement, and memo keys compose through
  /// the plan's flattened key-register lists. Null runs the legacy walk
  /// unchanged. \p Flags must outlive the driver.
  UnrollDriver(RegionExecutionCore &Core, RegionState &R, uint32_t Ordinal,
               vm::VM &M, const OptFlags &Flags, vm::CodeObject &Buf,
               std::map<ir::BlockId, uint32_t> &ExitStubs,
               std::map<uint32_t, uint32_t> &DispatchStubs,
               std::map<ir::BlockId, uint32_t> &OsrEntries,
               BumpArena &Scratch, cogen::EmitPlan *Plan = nullptr)
      : Core(Core), R(R), Ordinal(Ordinal), M(M), CM(M.costModel()),
        Flags(Flags), GX(R.GX), Buf(Buf), ExitStubs(ExitStubs),
        DispatchStubs(DispatchStubs), OsrEntries(OsrEntries),
        E(Buf, R.Stats, M, R.GX, Flags.MaxRegionInstrs),
        D(E, R.Stats, M, Flags, R.GX), MaxRegionInstrs(Flags.MaxRegionInstrs),
        Plan(Plan),
        PR(M, R, Buf, Flags.MaxRegionInstrs, D),
        Queue(ArenaAllocator<Item>(Scratch)),
        Memo(std::less<std::vector<uint64_t>>(),
             ArenaAllocator<MemoPair>(Scratch)),
        PM(Scratch), Patches(ArenaAllocator<Patch>(Scratch)) {}

  /// Runs the generating extension from \p Ctx0 with static values
  /// \p Vals0; returns the entry PC within the buffer.
  uint32_t run(uint32_t Ctx0, std::vector<Word> Vals0);

private:
  struct Item {
    uint32_t Ctx = 0;
    std::vector<Word> Vals;
    /// The item's memo value slot (queued with -1 by the single-probe
    /// find-or-queue on the edge that produced it). Stable for the
    /// driver's lifetime in both modes; plan-mode place() assigns the
    /// placement pc through it without recomposing the key. Null only
    /// for CondBr fall-throughs, which run() resolves before placing.
    int64_t *MemoVal = nullptr;
  };

  struct Patch {
    size_t PC = 0;
    bool FieldC = false;
    std::vector<uint64_t> Key; ///< legacy walk: re-probed at resolution
    int64_t *Val = nullptr;    ///< plan mode: target's stable memo slot
  };

  /// Branch-target resolution for an edge. Fresh Ctx edges yield no PC;
  /// the caller may use one as fall-through.
  struct EdgeLabel {
    bool Known = false;
    uint32_t PC = 0;
    bool FreshCtx = false; ///< unseen context: caller picks fall-through
  };

  void charge(uint64_t Cycles) { M.chargeDynComp(Cycles); }
  uint32_t bufSize() const {
    return static_cast<uint32_t>(Buf.Code.size());
  }

  /// Composes the memo key of (\p Ctx, \p Vals) into the reused KeyScratch
  /// buffer and returns it. Plan mode iterates the plan's flattened
  /// key-register list; legacy walks the context's StaticIn bit set — the
  /// two produce identical keys (ascending register order).
  const std::vector<uint64_t> &keyRef(uint32_t Ctx,
                                      const std::vector<Word> &Vals);

  /// Memo primitives, routed to the open-addressed PlanMemo in plan mode
  /// and the legacy ordered Memo otherwise. Key composition never charges
  /// the simulated cost model, so the split is host-time only.
  /// \p K composed by keyRef reuses the hash computed during composition;
  /// any other key is rehashed.
  uint64_t hashOf(const std::vector<uint64_t> &K) const {
    return &K == &KeyScratch ? KeyHashScratch
                             : PlanMemo::hashWords(K.data(), K.size());
  }
  int64_t *memoFind(const std::vector<uint64_t> &K);
  /// Legacy-walk placement: re-probe the ordered memo and assign. Plan
  /// mode assigns through the item's stable MemoVal handle instead.
  void memoAssign(const std::vector<uint64_t> &K, int64_t V) { Memo[K] = V; }
  /// Fused find + queue-mark: one probe resolves the key, queuing it
  /// (value -1) when first seen. \p Fresh reports the first-seen case.
  /// The returned slot pointer is stable for the driver's lifetime in
  /// both modes (chunked store / node-based map). Identical memo contents
  /// and emitted code to find-then-mark; the fusion only drops the edge
  /// paths' duplicate composition and probe.
  int64_t *memoFindOrQueue(const std::vector<uint64_t> &K, bool &Fresh) {
    if (Plan) {
      int64_t *V = PM.findOrInsert(K.data(), K.size(), hashOf(K), Fresh);
      if (Fresh)
        *V = -1;
      return V;
    }
    auto [It, Inserted] = Memo.emplace(K, -1);
    Fresh = Inserted;
    return &It->second;
  }
  /// Records a forward-branch patch against the target's memo slot \p V
  /// (plan mode: resolved by dereferencing the stable handle). The legacy
  /// walk stores a key copy and re-probes at resolution, as it always has.
  void addPatch(size_t PC, bool FieldC, const std::vector<uint64_t> &K,
                int64_t *V) {
    if (Plan)
      Patches.push_back({PC, FieldC, {}, V});
    else
      Patches.push_back({PC, FieldC, K, nullptr});
  }

  void execSetup(const cogen::SetupOp &Op, std::vector<Word> &Vals);

  /// Emits the constants for static registers demoted across \p E (the
  /// static-to-dynamic boundary: their run-time registers must now hold
  /// the values the specializer has been tracking).
  void materializeForEdge(const bta::Edge &Ed, const std::vector<Word> &Vals);

  /// Handles an unconditional continuation. Returns a fall-through item if
  /// the target is fresh.
  std::optional<Item> continueEdge(const bta::Edge &Ed, Item &Cur);

  uint32_t makeSite(uint32_t PromoIdx, const std::vector<Word> &Vals);

  EdgeLabel labelFor(const bta::Edge &Ed, const std::vector<Word> &Vals,
                     size_t BranchPC, bool FieldC);

  std::optional<Item> place(Item &Cur);

  RegionExecutionCore &Core;
  RegionState &R;
  uint32_t Ordinal;
  vm::VM &M;
  const vm::CostModel &CM;
  const OptFlags &Flags;
  const cogen::GenExtFunction &GX;
  vm::CodeObject &Buf;
  std::map<ir::BlockId, uint32_t> &ExitStubs;
  std::map<uint32_t, uint32_t> &DispatchStubs;
  /// This run's once-placed IR-block entry pcs (see CodeChain::OsrEntries).
  /// Filled from the flat OsrState array when the run finishes; place()
  /// itself only touches the array (one index per placement instead of
  /// ordered-map traffic on the specializer's hottest path).
  std::map<ir::BlockId, uint32_t> &OsrEntries;
  /// Per-block placement state for this run, indexed by IR block id:
  /// -1 unseen, -2 placed more than once (loop unrolling — disqualified
  /// for OSR), else the block's unique entry pc. Driver-local because
  /// RegionState::CtxPlacements accumulates across runs.
  std::vector<int64_t> OsrState;

  Emitter E;
  DeferralEngine D;
  size_t MaxRegionInstrs;      ///< Flags.MaxRegionInstrs (buffer reserve)
  cogen::EmitPlan *Plan;       ///< null = legacy walk
  PlanRunner PR;

  using MemoPair = std::pair<const std::vector<uint64_t>, int64_t>;
  using MemoMap = std::map<std::vector<uint64_t>, int64_t,
                           std::less<std::vector<uint64_t>>,
                           ArenaAllocator<MemoPair>>;

  std::deque<Item, ArenaAllocator<Item>> Queue;
  MemoMap Memo; ///< -1 queued, else PC (legacy walk)
  PlanMemo PM;  ///< same contract, open-addressed (plan mode)
  std::vector<uint64_t> KeyScratch; ///< keyRef's reused composition buffer
  uint64_t KeyHashScratch = 0; ///< FNV-1a of KeyScratch (plan mode)
  std::vector<Patch, ArenaAllocator<Patch>> Patches;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_UNROLLDRIVER_H
