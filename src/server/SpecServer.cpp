//===- server/SpecServer.cpp -------------------------------------------------------===//

#include "server/SpecServer.h"

#include "analysis/LoopInfo.h"
#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>

namespace dyc {
namespace server {

namespace {

/// Set while this thread is inside a specialization run. A nested miss
/// (the generating extension executing a static call that enters another
/// region) must specialize inline under the already-held recursive lock —
/// handing it to the worker pool could deadlock a full queue against the
/// very worker that is waiting.
thread_local bool InSpecWorkerFlag = false;

/// Per-thread retained-capacity scratch for dispatch-key composition: the
/// hit path composes the key and probes the snapshot without allocating.
thread_local SmallKeyBuf DispatchKeyScratch;

/// FNV-1a over a bytecode stream — the "region version" half of the chain
/// store's content address and of the warm-start module fingerprint.
uint64_t hashCode(const std::vector<vm::Instr> &Code) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (const vm::Instr &I : Code) {
    Mix(static_cast<uint64_t>(I.Opcode));
    Mix((static_cast<uint64_t>(I.A) << 42) ^
        (static_cast<uint64_t>(I.B) << 21) ^ I.C);
    Mix(static_cast<uint64_t>(I.Imm));
  }
  return H;
}

// Warm-start file layout: fixed-width host-order fields, then an FNV-1a
// checksum of every preceding byte. The format is process-local (a cache
// is reloaded on the machine that wrote it), so host byte order is fine;
// the header's sizeof(Instr) check rejects files from a differently-packed
// build, and the checksum rejects truncated or corrupted files.
constexpr uint64_t WarmMagic = 0x314d524157435944ull; // "DYCWARM1"
constexpr uint32_t WarmFormatVersion = 2;

uint64_t fnv1a(const char *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != N; ++I) {
    H ^= static_cast<unsigned char>(P[I]);
    H *= 1099511628211ull;
  }
  return H;
}

/// The module half of the warm-start identity: every region's content
/// hash, FNV-chained.
uint64_t moduleFingerprint(const std::vector<uint64_t> &RegionHashes) {
  uint64_t FP = 0xcbf29ce484222325ull;
  for (uint64_t H : RegionHashes) {
    FP ^= H;
    FP *= 1099511628211ull;
  }
  return FP;
}

/// Appends warm-start fields to an in-memory image of the file.
struct WarmWriter {
  std::string Buf;

  void bytes(const void *P, size_t N) {
    Buf.append(static_cast<const char *>(P), N);
  }
  void u32(uint32_t V) { bytes(&V, 4); }
  void u64(uint64_t V) { bytes(&V, 8); }
  void words(const std::vector<Word> &Ws) {
    u32(static_cast<uint32_t>(Ws.size()));
    for (const Word &W : Ws)
      u64(W.Bits);
  }
  template <typename K, typename V> void pairMap(const std::map<K, V> &M) {
    u32(static_cast<uint32_t>(M.size()));
    for (const auto &KV : M) {
      u32(static_cast<uint32_t>(KV.first));
      u32(static_cast<uint32_t>(KV.second));
    }
  }
};

/// Bounds-checked cursor over a loaded warm-start file: every read fails,
/// rather than overruns, past the end.
struct WarmReader {
  const char *P;
  const char *End;

  bool bytes(void *Out, size_t N) {
    if (static_cast<size_t>(End - P) < N)
      return false;
    std::memcpy(Out, P, N);
    P += N;
    return true;
  }
  bool u32(uint32_t &V) { return bytes(&V, 4); }
  bool u64(uint64_t &V) { return bytes(&V, 8); }
  bool words(std::vector<Word> &Ws) {
    uint32_t N;
    if (!u32(N) || N > static_cast<size_t>(End - P) / 8)
      return false;
    Ws.resize(N);
    for (Word &W : Ws)
      if (!u64(W.Bits))
        return false;
    return true;
  }
  template <typename K, typename V> bool pairMap(std::map<K, V> &M) {
    uint32_t N;
    if (!u32(N) || N > static_cast<size_t>(End - P) / 8)
      return false;
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t A, B;
      if (!u32(A) || !u32(B))
        return false;
      M.emplace(static_cast<K>(A), static_cast<V>(B));
    }
    return true;
  }
};

/// Whether every PC \p M maps to lies inside a chain of \p CodeN
/// instructions.
template <typename K>
bool pcsInRange(const std::map<K, uint32_t> &M, uint32_t CodeN) {
  for (const auto &KV : M)
    if (KV.second >= CodeN)
      return false;
  return true;
}

/// Whether every instruction of a loaded chain has a real opcode, every
/// register operand names a slot of the region's \p NumRegs-register
/// frame, and every control transfer stays in range: branch targets
/// inside the chain, Dispatch payloads (-(site+1)) naming one of the
/// file's \p NumSites sites, and ExitRegion resume offsets inside the
/// region function's \p StaticN static instructions.
bool codeInRange(const std::vector<vm::Instr> &Code, uint32_t NumSites,
                 size_t StaticN, uint32_t NumRegs) {
  for (const vm::Instr &I : Code) {
    if (static_cast<unsigned>(I.Opcode) >= vm::NumOps ||
        !vm::registersInFrame(I, NumRegs))
      return false;
    bool Ok = true;
    switch (I.Opcode) {
    case vm::Op::Br:
      Ok = I.B < Code.size();
      break;
    case vm::Op::CondBr:
      Ok = I.B < Code.size() && I.C < Code.size();
      break;
    case vm::Op::Dispatch:
      Ok = I.Imm < 0 && I.Imm >= -static_cast<int64_t>(NumSites);
      break;
    case vm::Op::ExitRegion:
      Ok = I.B < StaticN;
      break;
    default:
      break;
    }
    if (!Ok)
      return false;
  }
  return true;
}

/// A site's or chain's identity — region, promotion, and value words —
/// as one comparable vector, for rejecting duplicates.
std::vector<uint64_t> identity(uint32_t Ord, uint32_t PromoId,
                               const std::vector<Word> &Vals) {
  std::vector<uint64_t> Id = {Ord, PromoId};
  for (const Word &W : Vals)
    Id.push_back(W.Bits);
  return Id;
}

} // namespace

SpecServer::SpecServer(const ir::Module &M, const OptFlags &Flags,
                       ServerConfig Cfg)
    : M(M), Flags(Flags), Cfg(std::move(Cfg)),
      Core(M, Prog, Flags), Queue(this->Cfg.QueueCapacity) {
  cogen::bindExternals(M, Prog);

  std::vector<bta::RegionInfo> Regions = bta::analyzeModule(M, Flags);
  AnnotatedOrdinal = bta::regionOrdinals(Regions);

  Lowered = cogen::lowerModule(M, Prog, /*WithRegions=*/true, Regions,
                               AnnotatedOrdinal);

  // Fallback program: the statically compiled module (annotations
  // ignored), lowered at a disjoint simulated address base so the two
  // programs' code never aliases in the I-cache model. Lowering preserves
  // IR register numbers, so a frame mid-flight in the dynamic lowering
  // can jump straight into this code at the region head.
  cogen::bindExternals(M, FallbackProg);
  FallbackProg.allocCodeAddr(1ull << 24);
  std::vector<bta::RegionInfo> Empty(M.numFunctions());
  std::vector<int> NoOrd(M.numFunctions(), -1);
  FallbackLowered =
      cogen::lowerModule(M, FallbackProg, /*WithRegions=*/false, Empty, NoOrd);

  for (size_t I = 0; I != M.numFunctions(); ++I) {
    if (AnnotatedOrdinal[I] < 0)
      continue;
    Core.addRegion(cogen::buildGenExt(M.function(static_cast<int>(I)), M,
                                      std::move(Regions[I]), Lowered[I],
                                      Flags));
  }

  // Global cache points: one per (region, promotion), numbered region by
  // region; every tenant view registers the same points.
  PointBase.resize(Core.numRegions());
  for (size_t Ord = 0, Next = 0; Ord != Core.numRegions(); ++Ord) {
    PointBase[Ord] = Next;
    Next += Core.numPromos(Ord);
  }

  // Dedup identity: a per-region content hash (the "region version" of
  // the chain store's content address) over the generic lowered region
  // code plus its shape, and the OptFlags fingerprint. Both are fixed for
  // the server's lifetime and validate warm-start files against a changed
  // module or changed optimization settings.
  FlagsFingerprint = this->Flags.fingerprint();
  RegionContentHash.resize(Core.numRegions());
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    int Ord = AnnotatedOrdinal[I];
    if (Ord < 0)
      continue;
    const vm::CodeObject &CO = Prog.function(Lowered[I].VMIndex);
    uint64_t H = hashCode(CO.Code);
    H = (H ^ CO.NumRegs) * 1099511628211ull;
    H = (H ^ Core.numPromos(static_cast<size_t>(Ord))) * 1099511628211ull;
    RegionContentHash[static_cast<size_t>(Ord)] = H;
  }

  // Tiering: the controller sizes its heat/counter banks to the region
  // count, and each region gets its loop heads resolved to fallback pcs
  // once, so arming OSR watches on a miss is just table walks.
  RegionLoopHeads.resize(Core.numRegions());
  if (this->Flags.Tier.Enabled) {
    Tier = std::make_unique<tier::TierController>(Flags.Tier,
                                                  Core.numRegions());
    for (size_t Ord = 0; Ord != Core.numRegions(); ++Ord) {
      int FuncIdx = Core.regionFuncIdx(static_cast<uint32_t>(Ord));
      const ir::Function &F = M.function(FuncIdx);
      analysis::CFG G(F);
      analysis::Dominators Dom(F, G);
      analysis::LoopInfo LI(F, G, Dom);
      const cogen::LoweredFunction &LF =
          FallbackLowered[static_cast<size_t>(FuncIdx)];
      for (const analysis::Loop &L : LI.loops())
        if (static_cast<size_t>(L.Header) < LF.BlockPC.size())
          RegionLoopHeads[Ord].emplace_back(L.Header, LF.BlockPC[L.Header]);
    }
  }

  SpecVM = std::make_unique<vm::VM>(Prog, this->Cfg.CM, this->Cfg.IC);
  SpecVM->Hook = this;
  // The specialization VM executes chains too (static calls at specialize
  // time dispatch again on the worker), so it shares translations like any
  // client.
  Core.attachVM(*SpecVM);
  if (this->Cfg.MemoryImage)
    this->Cfg.MemoryImage(*SpecVM);

  // Warm start before workers exist: the site table and chain store are
  // rebuilt at their original indices/ordinals while nothing dispatches.
  if (!this->Cfg.WarmStartPath.empty())
    loadCacheFrom(this->Cfg.WarmStartPath);

  unsigned N = this->Cfg.NumWorkers ? this->Cfg.NumWorkers : 1;
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back(&SpecServer::workerLoop, this);
}

SpecServer::~SpecServer() {
  Queue.shutdown();
  for (std::thread &T : Workers)
    T.join();
  // Workers are gone and clients must be gone before the server (they hold
  // its hook), so the store is quiescent: serialize it for the next start.
  if (!Cfg.WarmStartPath.empty())
    saveCacheTo(Cfg.WarmStartPath);
}

std::unique_ptr<vm::VM> SpecServer::makeClientVM(uint32_t TenantId) {
  auto V = std::make_unique<vm::VM>(Prog, Cfg.CM, Cfg.IC);
  V->Hook = this;
  // Register the tenant here, before the VM's first dispatch can name it,
  // and hand the VM its view: dispatch never looks tenants up.
  V->HookClient = &tenantState(TenantId);
  Core.attachVM(*V);
  if (Cfg.MemoryImage)
    Cfg.MemoryImage(*V);
  return V;
}

int SpecServer::regionOrdinalOf(const std::string &Name) const {
  int Idx = findFunction(Name);
  if (Idx < 0 || static_cast<size_t>(Idx) >= AnnotatedOrdinal.size())
    return -1;
  return AnnotatedOrdinal[static_cast<size_t>(Idx)];
}

vm::RuntimeHook::Target SpecServer::enterChain(const CacheRecord &Rec,
                                               vm::VM &ClientVM) {
  // An adopted record's chain must look freshly compiled to the client
  // that takes it: if this client executed the same physical chain in an
  // earlier residency, stale I-cache lines would hit where a dedicated
  // server's fresh compile (at a never-used address) would miss.
  if (Rec.ColdEntryPending.load(std::memory_order_relaxed) &&
      Rec.ColdEntryPending.exchange(false, std::memory_order_acq_rel))
    ClientVM.icache().invalidateRange(
        Rec.Chain->CO.BaseAddr,
        static_cast<uint64_t>(Rec.Chain->CO.Code.size()) * 4);
  // Count the executor in before handing out the chain: the capacity
  // manager may evict it at any time, and collection waits for this
  // count — dropped again by the VM when the frame leaves — to drain.
  Rec.Chain->ActiveRefs.fetch_add(1, std::memory_order_acq_rel);
  return {&Rec.Chain->CO, Rec.EntryPC};
}

vm::RuntimeHook::Target
SpecServer::fallbackTarget(uint32_t Ord, const bta::PromoPoint &P,
                           std::vector<Word> &Regs,
                           const std::vector<Word> &BakedVals) {
  int FuncIdx = Core.regionFuncIdx(Ord);
  const cogen::LoweredFunction &LF =
      FallbackLowered[static_cast<size_t>(FuncIdx)];
  const vm::CodeObject &CO = FallbackProg.function(LF.VMIndex);
  if (Regs.size() < CO.NumRegs)
    Regs.resize(CO.NumRegs);
  // Complete the static state: key registers are already live in the
  // frame; baked values (earlier promotions' static values) are not —
  // transfer them. StaticIn at the region head is covered by the union.
  for (size_t I = 0; I != P.BakedRegs.size(); ++I)
    Regs[P.BakedRegs[I]] = I < BakedVals.size() ? BakedVals[I] : Word();
  assert(P.Block < LF.BlockPC.size() && "promo block missing from lowering");
  return {&CO, LF.BlockPC[P.Block]};
}

vm::RuntimeHook::Target SpecServer::dispatch(vm::VM &ClientVM,
                                             int64_t PointId,
                                             std::vector<Word> &Regs) {
  // Readers hold the gate shared for the whole dispatch so reclamation
  // (which try-locks it exclusively) can never free a snapshot or chain
  // out from under a probe.
  std::shared_lock<std::shared_mutex> Gate(DispatchGate);
  TenantState &TS = viewOf(ClientVM);
  TS.St.Dispatches.fetch_add(1, std::memory_order_relaxed);

  uint32_t Ord, PromoId;
  const runtime::DispatchSite *Site = nullptr;
  if (PointId >= 0) {
    Ord = static_cast<uint32_t>(PointId >> 16);
    PromoId = static_cast<uint32_t>(PointId & 0xffff);
  } else {
    // Interned sites are immutable and deque-backed, so the reference
    // stays valid without copying the site's baked values.
    const runtime::DispatchSite &S =
        Core.siteRef(static_cast<size_t>(-(PointId + 1)));
    Site = &S;
    Ord = S.RegionOrd;
    PromoId = S.PromoId;
  }
  const bta::PromoPoint &P = Core.promo(Ord, PromoId);
  size_t Point = PointBase[Ord] + PromoId;

  // Compose the cache key once into per-thread scratch: baked
  // specialize-time values, then the promoted registers. The hit path
  // runs allocation-free end to end; the miss path slices this buffer.
  SmallKeyBuf &KeyBuf = DispatchKeyScratch;
  KeyBuf.clear();
  size_t BakedWords = 0;
  if (Site) {
    KeyBuf.append(Site->BakedVals.data(), Site->BakedVals.size());
    BakedWords = KeyBuf.size();
  }
  for (ir::Reg Rg : P.KeyRegs)
    KeyBuf.push_back(Regs[Rg]);
  WordSpan Key = KeyBuf.span();

  runtime::CacheResult L = TS.Cache.lookup(Point, Key);
  runtime::chargeDispatchCost(ClientVM, P.Policy, Key.size(), L.Probes);
  if (L.Entry) {
    TS.St.CacheHits.fetch_add(1, std::memory_order_relaxed);
    L.Entry->RefBit.store(true, std::memory_order_release);
    return enterChain(*L.Entry, ClientVM);
  }
  TS.St.CacheMisses.fetch_add(1, std::memory_order_relaxed);

  // Materialize owned copies before anything that can re-enter dispatch
  // on this thread (inline nested specialization recomposes the scratch)
  // or outlive this frame (the queued job).
  std::vector<Word> Baked(Key.Data, Key.Data + BakedWords);
  std::vector<Word> KeyVec(Key.begin(), Key.end());
  std::vector<Word> KeyVals(Key.Data + BakedWords, Key.end());

  if (InSpecWorkerFlag) {
    // Nested miss during a specialization run: specialize inline on this
    // thread (the recursive lock is already held).
    TS.St.InlineSpecs.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<CacheRecord> Rec =
        specializeAndPublish(TS, Ord, PromoId, Point, KeyVec, Baked, KeyVals);
    return enterChain(*Rec, ClientVM);
  }

  // Tier classification. Without tiering every miss is "hot" (the eager
  // behavior); with it, cold and warm misses run the generic code and
  // request nothing — only hot misses create compile work. Tiering
  // changes only *when* specialization happens: the executed code and the
  // per-dispatch simulated charges are tier-invariant.
  bool Hot = true, ColdInterp = false;
  if (Tier) {
    tier::TierDecision D = Tier->onMiss(Ord);
    Hot = D.Compile;
    ColdInterp = D.Interpret;
  }

  // Backpressure on the background path: once the queue holds enough
  // in-flight compiles, a hot miss skips submitting and retries on a
  // later miss. (Synchronous installs never skip — they must block.)
  bool WantJob = Hot;
  if (Tier && WantJob && !Tier->policy().SyncInstall &&
      Tier->policy().MaxInFlightCompiles != 0 &&
      Queue.pending() >= Tier->policy().MaxInFlightCompiles)
    WantJob = false;
  // Quota admission: past the tenant's in-flight cap the miss is refused
  // outright — it neither creates a job nor joins a coalesced one (a join
  // would let a tenant ride another's compile slot past its own cap) —
  // and is served by the static fallback.
  if (WantJob && Cfg.Quota.MaxInFlightCompiles != 0 &&
      TS.InFlightCompiles.load(std::memory_order_acquire) >=
          Cfg.Quota.MaxInFlightCompiles) {
    WantJob = false;
    TS.St.QuotaRejections.fetch_add(1, std::memory_order_relaxed);
  }
  // A hot async miss arms OSR watches after the fallback decision, and
  // the watch records keep the full cache key — so that path copies the
  // key into the job instead of moving it.
  bool ArmOsr = Tier && Hot && !Tier->policy().SyncInstall;

  std::shared_ptr<SpecJob> Shared;
  if (WantJob) {
    auto Job = std::make_unique<SpecJob>();
    Job->Id.Tenant = TS.Id;
    Job->Id.Point = Point;
    if (ArmOsr)
      Job->Id.Key = KeyVec;
    else
      Job->Id.Key = std::move(KeyVec);
    Job->View = &TS;
    Job->RegionOrd = Ord;
    Job->PromoId = PromoId;
    Job->BakedVals = Baked; // copied: the fallback path below reads it too
    Job->KeyVals = std::move(KeyVals);
    bool Created = false;
    Shared = Queue.submit(std::move(Job), Created);
    if (Created) {
      TS.InFlightCompiles.fetch_add(1, std::memory_order_acq_rel);
      TS.St.JobsEnqueued.fetch_add(1, std::memory_order_relaxed);
    } else if (Shared) {
      TS.St.JobsCoalesced.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool CompileDead = false;
  bool BlockNow = (!Tier && Cfg.OnMiss == MissPolicy::Block) ||
                  (Tier && Hot && Tier->policy().SyncInstall);
  if (Shared && BlockNow) {
    // The insert itself is work done on the client's behalf; the
    // specialization cycles land on the server's VM.
    ClientVM.chargeDynComp(ClientVM.costModel().SpecCacheInsert);
    std::shared_ptr<CacheRecord> Rec = Shared->Future.get();
    if (Rec) {
      Rec->RefBit.store(true, std::memory_order_release);
      return enterChain(*Rec, ClientVM);
    }
    CompileDead = true; // job abandoned at shutdown
  }
  // Fallback policy, tiered cold/warm execution, a quota refusal, queue
  // shutdown, or a job abandoned at shutdown: run the statically compiled
  // region.
  TS.St.Fallbacks.fetch_add(1, std::memory_order_relaxed);
  if (!WantJob)
    TS.St.FallbacksNotRequested.fetch_add(1, std::memory_order_relaxed);
  else if (Shared && !CompileDead)
    TS.St.FallbacksInFlight.fetch_add(1, std::memory_order_relaxed);
  else
    TS.St.FallbacksFailed.fetch_add(1, std::memory_order_relaxed);

  // Hot async miss: arm back-edge watches so the frame can pick up the
  // chain mid-loop once the background compile lands. (Armed even when
  // backpressure skipped the submit — an earlier job may still land.)
  if (ArmOsr)
    armOsrWatches(ClientVM, Ord, PromoId, Point, KeyVec);

  Target T = fallbackTarget(Ord, P, Regs, Baked);
  T.Interpret = ColdInterp;
  return T;
}

void SpecServer::armOsrWatches(vm::VM &ClientVM, uint32_t Ord,
                               uint32_t PromoId, size_t Point,
                               const std::vector<Word> &Key) {
  const std::vector<std::pair<ir::BlockId, uint32_t>> &Heads =
      RegionLoopHeads[Ord];
  if (Heads.empty())
    return;
  int FuncIdx = Core.regionFuncIdx(Ord);
  const cogen::LoweredFunction &LF =
      FallbackLowered[static_cast<size_t>(FuncIdx)];
  uint64_t Base = FallbackProg.function(LF.VMIndex).BaseAddr;
  std::lock_guard<std::mutex> Lock(OsrMutex);
  for (const std::pair<ir::BlockId, uint32_t> &HP : Heads) {
    uint64_t Token = OsrTokens.fetch_add(1, std::memory_order_relaxed) + 1;
    OsrRecord R;
    R.Point = Point;
    R.Key = Key;
    R.Ord = Ord;
    R.PromoId = PromoId;
    R.HeadBlock = HP.first;
    OsrTable.emplace(Token, std::move(R));
    ClientVM.armOsr(Base, HP.second, Token);
  }
}

vm::RuntimeHook::Target SpecServer::onOsrPoll(vm::VM &ClientVM,
                                              uint64_t Token,
                                              std::vector<Word> &Regs) {
  // Same reader discipline as dispatch: the gate keeps reclamation from
  // freeing the snapshot or chain under the probe. Lock order matches
  // dispatch/armOsrWatches: gate, then OsrMutex.
  std::shared_lock<std::shared_mutex> Gate(DispatchGate);
  std::lock_guard<std::mutex> Lock(OsrMutex);
  auto It = OsrTable.find(Token);
  if (It == OsrTable.end())
    return {};
  OsrRecord &R = It->second;
  R.Polls++;
  if (Tier) {
    Tier->region(R.Ord).OsrPolls.fetch_add(1, std::memory_order_relaxed);
    if (R.Polls < static_cast<uint64_t>(Tier->policy().OsrMinPolls))
      return {};
  }
  runtime::CacheResult L = viewOf(ClientVM).Cache.lookup(R.Point, R.Key);
  if (!L.Entry)
    return {}; // compile not landed yet; keep spinning
  const CacheRecord &Rec = *L.Entry;
  auto EIt = Rec.Chain->OsrEntries.find(R.HeadBlock);
  if (EIt == Rec.Chain->OsrEntries.end()) {
    // The chain has no residual pc for this head (the loop unrolled
    // away); this watch can never fire — disarm it. disarmOsr does not
    // notify onOsrDrop, so erasing here is the only cleanup.
    ClientVM.disarmOsr(Token);
    OsrTable.erase(It);
    return {};
  }
  // A mid-loop transfer is a dispatch the frame did not have to take:
  // charge the probe exactly as the trap path would have, and enter the
  // chain through enterChain's books. Not counted in `disp` or `hit` —
  // those mean trap dispatches.
  const bta::PromoPoint &P = Core.promo(R.Ord, R.PromoId);
  runtime::chargeDispatchCost(ClientVM, P.Policy, R.Key.size(), L.Probes);
  Rec.RefBit.store(true, std::memory_order_release);
  if (Regs.size() < Rec.Chain->CO.NumRegs)
    Regs.resize(Rec.Chain->CO.NumRegs);
  if (Tier)
    Tier->region(R.Ord).OsrEntries.fetch_add(1, std::memory_order_relaxed);
  Target T = enterChain(Rec, ClientVM);
  T.PC = EIt->second;
  OsrTable.erase(It);
  return T;
}

void SpecServer::onOsrDrop(vm::VM &, uint64_t Token) {
  std::lock_guard<std::mutex> Lock(OsrMutex);
  OsrTable.erase(Token);
}

std::shared_ptr<CacheRecord> SpecServer::specializeAndPublish(
    TenantState &TS, uint32_t Ord, uint32_t PromoId, size_t Point,
    const std::vector<Word> &Key, const std::vector<Word> &BakedVals,
    const std::vector<Word> &KeyVals) {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  // Recheck under the lock: the key may have been published into this
  // view while the request sat in the queue (or by a concurrent nested
  // run).
  if (std::shared_ptr<CacheRecord> Existing = TS.Cache.findRecord(Point, Key))
    return Existing;

  uint64_t DK = ChainStore::dedupKey(RegionContentHash[Ord], PromoId, Key,
                                     FlagsFingerprint);
  std::shared_ptr<CacheRecord> Rec;
  StoredChain *SC = Store.find(DK, Ord, PromoId, Key);
  if (SC) {
    // Adoption: another tenant (or the warm-start file) already produced
    // this chain. Publish a fresh record over the shared chain with fresh
    // usage bits, so the view's CLOCK sees exactly what a dedicated
    // server's would for a newly compiled chain.
    Rec = std::make_shared<CacheRecord>();
    Rec->Key = Key;
    Rec->Hash = hashWords(Key);
    Rec->Region = Ord;
    Rec->PromoId = PromoId;
    Rec->EntryPC = SC->EntryPC;
    Rec->Chain = SC->Chain;
    Rec->ColdEntryPending.store(true, std::memory_order_release);
    Rec->Ordinal = SC->Chain->Ordinal;
    TS.St.DedupHits.fetch_add(1, std::memory_order_relaxed);
    if (SC->WarmLoaded)
      TS.St.WarmHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The run's nested misses, on the server's own VM, publish into this
    // view.
    void *PrevView = SpecVM->HookClient;
    bool Prev = InSpecWorkerFlag;
    SpecVM->HookClient = &TS;
    InSpecWorkerFlag = true;
    Rec = Core.specializeInto(Ord, *SpecVM, PromoId, Key, BakedVals, KeyVals);
    InSpecWorkerFlag = Prev;
    SpecVM->HookClient = PrevView;
    StoredChain NewSC;
    NewSC.DedupKey = DK;
    NewSC.Ord = Ord;
    NewSC.PromoId = PromoId;
    NewSC.Key = Key;
    NewSC.EntryPC = Rec->EntryPC;
    NewSC.Chain = Rec->Chain;
    SC = &Store.insert(std::move(NewSC));
  }
  // An adoption still counts as a specialization run and a created chain
  // in the view's ledger — the dedicated server this ledger must match
  // would have compiled; stats() takes the adoptions back out.
  TS.St.SpecRuns.fetch_add(1, std::memory_order_relaxed);
  TS.St.ChainsCreated.fetch_add(1, std::memory_order_relaxed);
  SC->Refs++; // this view's publish reference
  Rec->Point = Point; // server points are global across regions

  if (std::shared_ptr<CacheRecord> D = TS.Cache.insert(Rec)) {
    // One-slot (or indexed same-slot) replacement displaced an older
    // version; its chain is now unreachable from this view.
    Core.displaced(TS.Book, *D, Core.promo(Ord, PromoId).Policy);
    releaseStoreRef(*D);
  }
  // Account the new chain against its region's budget; CLOCK victims are
  // unpublished from the view's cache and drop their store reference.
  Core.admit(TS.Book, Rec, [&](const CacheRecord &Victim) {
    TS.Cache.erase(Victim);
    TS.St.Evictions.fetch_add(1, std::memory_order_relaxed);
    releaseStoreRef(Victim);
  });
  if (Tier)
    Tier->region(Ord).HotInstalls.fetch_add(1, std::memory_order_relaxed);
  return Rec;
}

TenantState &SpecServer::tenantState(uint32_t Id) {
  std::unique_lock<std::shared_mutex> L(TenantsMutex);
  TenantState *&TS = TenantIndex[Id];
  if (!TS) {
    TS = &Tenants.emplace_back(Id, Cfg.Budget);
    for (size_t Ord = 0; Ord != Core.numRegions(); ++Ord)
      for (size_t P = 0; P != Core.numPromos(Ord); ++P) {
        const bta::PromoPoint &PP = Core.promo(Ord, P);
        TS->Cache.addPoint(PP.Policy, PP.IndexKeyPos);
      }
  }
  return *TS;
}

TenantState *SpecServer::findTenant(uint32_t Id) const {
  std::shared_lock<std::shared_mutex> L(TenantsMutex);
  auto It = TenantIndex.find(Id);
  return It == TenantIndex.end() ? nullptr : It->second;
}

void SpecServer::releaseStoreRef(const CacheRecord &Rec) {
  uint64_t DK = ChainStore::dedupKey(RegionContentHash[Rec.Region],
                                     Rec.PromoId, Rec.Key, FlagsFingerprint);
  // The last view let go: retire the chain. Collection still waits for
  // active executors to drain at the trimQuiescent safe point.
  if (std::shared_ptr<CodeChain> Last = Store.release(DK, *Rec.Chain))
    Core.retireChain(*Last);
}

ServerStatsSnapshot SpecServer::stats() const {
  ServerStatsSnapshot S;
  {
    // The runs, chains and dedup counters change only under the
    // specialization lock, so the difference below reads consistently.
    std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
    std::shared_lock<std::shared_mutex> L(TenantsMutex);
    for (const TenantState &TS : Tenants) {
      TS.St.addTo(S);
      S.SnapshotsRetired += TS.Cache.retiredSnapshots();
      S.MultiTenant |= TS.Id != 0;
    }
    S.Tenants = Tenants.size();
    // The two-ledger identity: tenant ledgers count adoptions as runs.
    S.SpecRuns -= S.DedupHits;
    S.ChainsCreated -= S.DedupHits;
  }
  S.ChainsCollected = ChainsCollected.load(std::memory_order_relaxed);
  S.StoreChains = Store.size();
  S.CompileQueueDepth = Queue.pending();
  if (Tier) {
    S.TierEnabled = true;
    Tier->totals().copyTo(S);
  }
  return S;
}

ServerStatsSnapshot SpecServer::tenantStats(uint32_t TenantId) const {
  ServerStatsSnapshot S;
  TenantState *TS = findTenant(TenantId);
  if (!TS)
    return S;
  TS->St.addTo(S);
  S.SnapshotsRetired = TS->Cache.retiredSnapshots();
  S.MultiTenant = true;
  S.Tenants = 1;
  return S;
}

std::string SpecServer::disassembleRegion(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return Core.disassembleRegion(Ordinal);
}

void SpecServer::workerLoop() {
  while (std::shared_ptr<SpecJob> Job = Queue.pop()) {
    // Test hook: hold the popped job until released, so tests can pin a
    // compile in flight and observe fallback/OSR behavior.
    if (Cfg.HoldCompiles)
      while (Cfg.HoldCompiles->load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    TenantState &TS = *Job->View;
    std::shared_ptr<CacheRecord> Rec =
        specializeAndPublish(TS, Job->RegionOrd, Job->PromoId, Job->Id.Point,
                             Job->Id.Key, Job->BakedVals, Job->KeyVals);
    // Release the tenant's in-flight slot before the future resolves: a
    // blocked client's next miss must deterministically see it free.
    TS.InFlightCompiles.fetch_sub(1, std::memory_order_acq_rel);
    // Publish before unregistering: a misser either finds the job
    // in-flight (and joins this future) or misses it and re-probes the
    // cache, which already holds the record.
    Job->Result.set_value(Rec);
    Queue.finish(Job->Id);
    {
      std::lock_guard<std::mutex> L(DrainMutex);
    }
    DrainCV.notify_all();
  }
}

void SpecServer::drain() {
  std::unique_lock<std::mutex> Lock(DrainMutex);
  DrainCV.wait(Lock, [&] { return Queue.pending() == 0; });
}

bool SpecServer::trimQuiescent(size_t *SnapsFreed, size_t *ChainsFreed) {
  std::unique_lock<std::shared_mutex> Gate(DispatchGate, std::try_to_lock);
  if (!Gate.owns_lock())
    return false; // dispatches in flight; reclamation must wait
  size_t Snaps = 0;
  {
    std::shared_lock<std::shared_mutex> TL(TenantsMutex);
    for (TenantState &TS : Tenants) {
      size_t TenantSnaps = TS.Cache.trimGraveyard();
      TS.St.SnapshotsFreed.fetch_add(TenantSnaps, std::memory_order_relaxed);
      Snaps += TenantSnaps;
    }
  }
  size_t Freed = Core.collectChains();
  ChainsCollected.fetch_add(Freed, std::memory_order_relaxed);
  if (SnapsFreed)
    *SnapsFreed = Snaps;
  if (ChainsFreed)
    *ChainsFreed = Freed;
  return true;
}

runtime::RegionStats SpecServer::regionStats(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  runtime::RegionStats RS = Core.stats(Ordinal);
  if (Tier) {
    RS.TierEnabled = true;
    Tier->counters(Ordinal).copyTo(RS);
  }
  return RS;
}

size_t SpecServer::residentEntries(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  std::shared_lock<std::shared_mutex> L(TenantsMutex);
  size_t N = 0;
  for (const TenantState &TS : Tenants)
    N += TS.Book.entries(Ordinal);
  return N;
}

uint64_t SpecServer::residentInstrs(size_t Ordinal) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  std::shared_lock<std::shared_mutex> L(TenantsMutex);
  uint64_t N = 0;
  for (const TenantState &TS : Tenants)
    N += TS.Book.instrs(Ordinal);
  return N;
}

uint64_t SpecServer::specOverheadCycles() const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  return SpecVM->dynCompCycles();
}

//===----------------------------------------------------------------------===//
// Warm start
//===----------------------------------------------------------------------===//

bool SpecServer::saveCacheTo(const std::string &Path) const {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  WarmWriter W;
  W.u64(WarmMagic);
  W.u32(WarmFormatVersion);
  W.u32(static_cast<uint32_t>(sizeof(vm::Instr)));
  W.u64(FlagsFingerprint);
  W.u64(moduleFingerprint(RegionContentHash));

  // Site table in index order: chain code embeds dispatch-site indices
  // (a Dispatch's PointId is -(site+1)), so a reload must reproduce every
  // site at its original index before any chain code runs.
  size_t NumSites = Core.numSites();
  W.u32(static_cast<uint32_t>(NumSites));
  for (size_t I = 0; I != NumSites; ++I) {
    const runtime::DispatchSite &S = Core.siteRef(I);
    W.u32(S.RegionOrd);
    W.u32(S.PromoId);
    W.words(S.BakedVals);
  }

  // Chains in creation-ordinal order: restoring in this order reallocates
  // the same simulated BaseAddr for every chain, keeping post-restart
  // I-cache behavior bit-identical to the original compile order.
  std::vector<const StoredChain *> Chains = Store.byOrdinal();
  W.u32(static_cast<uint32_t>(Chains.size()));
  for (const StoredChain *SC : Chains) {
    const CodeChain &C = *SC->Chain;
    W.u32(SC->Ord);
    W.u32(SC->PromoId);
    W.u32(SC->EntryPC);
    W.words(SC->Key);
    W.u32(static_cast<uint32_t>(C.CO.Code.size()));
    W.bytes(C.CO.Code.data(), C.CO.Code.size() * sizeof(vm::Instr));
    W.pairMap(C.ExitStubs);
    W.pairMap(C.DispatchStubs);
    W.pairMap(C.OsrEntries);
  }
  W.u64(fnv1a(W.Buf.data(), W.Buf.size()));

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(W.Buf.data(), static_cast<std::streamsize>(W.Buf.size()));
  return static_cast<bool>(Out.flush());
}

bool SpecServer::loadCacheFrom(const std::string &Path) {
  std::lock_guard<std::recursive_mutex> Lock(SpecMutex);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  const std::string Buf((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
  uint64_t Sum = 0;
  if (Buf.size() < sizeof(Sum))
    return false;
  const size_t PayloadN = Buf.size() - sizeof(Sum);
  std::memcpy(&Sum, Buf.data() + PayloadN, sizeof(Sum));
  if (Sum != fnv1a(Buf.data(), PayloadN))
    return false;

  // Parse and validate the whole file into locals first: server state
  // changes only once every check has passed, so a rejected file loads
  // nothing — no sites, no chains.
  WarmReader R{Buf.data(), Buf.data() + PayloadN};
  auto ValidPoint = [&](uint32_t Ord, uint32_t PromoId) {
    return Ord < Core.numRegions() && PromoId < Core.numPromos(Ord);
  };
  uint64_t Magic = 0, FlagsFP = 0, ModuleFP = 0;
  uint32_t Version = 0, InstrSize = 0, NumSites = 0;
  if (!R.u64(Magic) || Magic != WarmMagic || !R.u32(Version) ||
      Version != WarmFormatVersion || !R.u32(InstrSize) ||
      InstrSize != sizeof(vm::Instr) || !R.u64(FlagsFP) ||
      FlagsFP != FlagsFingerprint || !R.u64(ModuleFP) ||
      ModuleFP != moduleFingerprint(RegionContentHash) ||
      !R.u32(NumSites) || (NumSites != 0 && Core.numSites() != 0))
    return false;
  // Sites and chains must be unique: internSite would merge a duplicate
  // site and shift every later index that chain code names, and the
  // store holds one chain per identity.
  std::set<std::vector<uint64_t>> Seen;
  std::vector<runtime::DispatchSite> Sites;
  for (uint32_t I = 0; I != NumSites; ++I) {
    runtime::DispatchSite S;
    if (!R.u32(S.RegionOrd) || !R.u32(S.PromoId) || !R.words(S.BakedVals) ||
        !ValidPoint(S.RegionOrd, S.PromoId) ||
        !Seen.insert(identity(S.RegionOrd, S.PromoId, S.BakedVals)).second)
      return false;
    Sites.push_back(std::move(S));
  }
  Seen.clear();

  struct LoadedChain {
    StoredChain SC;
    std::vector<vm::Instr> Code;
    std::map<ir::BlockId, uint32_t> ExitStubs;
    std::map<uint32_t, uint32_t> DispatchStubs;
    std::map<ir::BlockId, uint32_t> OsrEntries;
  };
  std::vector<LoadedChain> Chains;
  uint32_t NumChains = 0;
  if (!R.u32(NumChains))
    return false;
  for (uint32_t I = 0; I != NumChains; ++I) {
    LoadedChain L;
    uint32_t CodeN = 0;
    if (!R.u32(L.SC.Ord) || !R.u32(L.SC.PromoId) || !R.u32(L.SC.EntryPC) ||
        !R.words(L.SC.Key) || !R.u32(CodeN) ||
        !ValidPoint(L.SC.Ord, L.SC.PromoId) || L.SC.EntryPC >= CodeN ||
        CodeN > (R.End - R.P) / sizeof(vm::Instr))
      return false;
    L.Code.resize(CodeN);
    const size_t StaticN =
        Prog.function(static_cast<uint32_t>(Core.regionFuncIdx(L.SC.Ord)))
            .Code.size();
    if (!Seen.insert(identity(L.SC.Ord, L.SC.PromoId, L.SC.Key)).second ||
        !R.bytes(L.Code.data(), CodeN * sizeof(vm::Instr)) ||
        !codeInRange(L.Code, NumSites, StaticN,
                     Core.regionNumRegs(L.SC.Ord)) ||
        !R.pairMap(L.ExitStubs) || !R.pairMap(L.DispatchStubs) ||
        !R.pairMap(L.OsrEntries) || !pcsInRange(L.ExitStubs, CodeN) ||
        !pcsInRange(L.DispatchStubs, CodeN) ||
        !pcsInRange(L.OsrEntries, CodeN))
      return false;
    Chains.push_back(std::move(L));
  }
  if (R.P != R.End)
    return false;

  for (runtime::DispatchSite &S : Sites)
    Core.internSite(std::move(S));
  for (LoadedChain &L : Chains) {
    StoredChain &SC = L.SC;
    SC.DedupKey = ChainStore::dedupKey(RegionContentHash[SC.Ord], SC.PromoId,
                                       SC.Key, FlagsFingerprint);
    SC.Chain = Core.restoreChain(SC.Ord, std::move(L.Code),
                                 std::move(L.ExitStubs),
                                 std::move(L.DispatchStubs),
                                 std::move(L.OsrEntries));
    SC.WarmLoaded = true;
    // Unreferenced until a tenant's first miss adopts it (a WarmHit).
    Store.insert(std::move(SC));
  }
  return true;
}

} // namespace server
} // namespace dyc
