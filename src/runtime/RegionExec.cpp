//===- runtime/RegionExec.cpp - Shared region-execution core -----------------------===//

#include "runtime/RegionExec.h"

#include "runtime/UnrollDriver.h"
#include "support/Support.h"

#include <algorithm>
#include <chrono>

namespace dyc {
namespace runtime {

//===----------------------------------------------------------------------===//
// ChainRegistry
//===----------------------------------------------------------------------===//

void ChainRegistry::add(std::shared_ptr<CodeChain> Chain) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Chains.push_back(std::move(Chain));
}

size_t ChainRegistry::collect(vm::SharedTranslations &Shared) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Live = std::remove_if(
      Chains.begin(), Chains.end(), [&](const std::shared_ptr<CodeChain> &C) {
        if (!C->Evicted.load(std::memory_order_acquire) ||
            C->ActiveRefs.load(std::memory_order_acquire) != 0)
          return false;
        // A VM still inside the chain when it was retired may have
        // published its translation since; nothing can enter it now.
        Shared.release(C->CO.BaseAddr);
        return true;
      });
  size_t Freed = static_cast<size_t>(Chains.end() - Live);
  Chains.erase(Live, Chains.end());
  return Freed;
}

size_t ChainRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Chains.size();
}

std::vector<std::shared_ptr<CodeChain>>
ChainRegistry::chainsOfRegion(uint32_t Region) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::shared_ptr<CodeChain>> Out;
  for (const std::shared_ptr<CodeChain> &C : Chains)
    if (C->Region == Region)
      Out.push_back(C);
  std::sort(Out.begin(), Out.end(),
            [](const std::shared_ptr<CodeChain> &A,
               const std::shared_ptr<CodeChain> &B) {
              return A->Ordinal < B->Ordinal;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// RegionExecutionCore: regions and metadata
//===----------------------------------------------------------------------===//

void RegionExecutionCore::addRegion(cogen::GenExtFunction GX) {
  auto R = std::make_unique<RegionState>();
  R->CtxPlacements.assign(GX.Region.Contexts.size(), 0);
  R->GX = std::move(GX);
  Regions.push_back(std::move(R));
}

const bta::PromoPoint &RegionExecutionCore::promo(size_t Ordinal,
                                                  size_t PromoId) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  const auto &Promos = Regions[Ordinal]->GX.Region.Promos;
  assert(PromoId < Promos.size() && "bad promotion point");
  return Promos[PromoId];
}

size_t RegionExecutionCore::numPromos(size_t Ordinal) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  return Regions[Ordinal]->GX.Region.Promos.size();
}

uint32_t RegionExecutionCore::regionNumRegs(size_t Ordinal) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  return Regions[Ordinal]->GX.NumRegs;
}

int RegionExecutionCore::regionFuncIdx(size_t Ordinal) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  return Regions[Ordinal]->GX.FuncIdx;
}

const RegionStats &RegionExecutionCore::stats(size_t Ordinal) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  return Regions[Ordinal]->Stats;
}

RegionStats &RegionExecutionCore::statsMutable(size_t Ordinal) {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  return Regions[Ordinal]->Stats;
}

//===----------------------------------------------------------------------===//
// Dispatch sites
//===----------------------------------------------------------------------===//

const DispatchSite &RegionExecutionCore::siteRef(size_t Idx) const {
  // The lock only orders this read against a concurrent internSite: deque
  // growth never moves existing elements and interned sites are immutable,
  // so the reference stays valid after the lock is released.
  std::lock_guard<std::mutex> Lock(SitesMutex);
  assert(Idx < Sites.size() && "bad dispatch site");
  return Sites[Idx];
}

size_t RegionExecutionCore::numSites() const {
  std::lock_guard<std::mutex> Lock(SitesMutex);
  return Sites.size();
}

uint32_t RegionExecutionCore::internSite(DispatchSite S, bool *Created) {
  std::lock_guard<std::mutex> Lock(SitesMutex);
  for (size_t I = 0; I != Sites.size(); ++I) {
    const DispatchSite &E = Sites[I];
    if (E.RegionOrd == S.RegionOrd && E.PromoId == S.PromoId &&
        E.BakedVals == S.BakedVals) {
      if (Created)
        *Created = false;
      return static_cast<uint32_t>(I);
    }
  }
  Sites.push_back(std::move(S));
  if (Created)
    *Created = true;
  return static_cast<uint32_t>(Sites.size() - 1);
}

//===----------------------------------------------------------------------===//
// Specialization
//===----------------------------------------------------------------------===//

std::shared_ptr<SpecEntry> RegionExecutionCore::specializeInto(
    size_t Ordinal, vm::VM &VMRef, uint32_t PromoId, WordSpan Key,
    WordSpan BakedVals, WordSpan KeyVals) {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  RegionState &R = *Regions[Ordinal];
  const bta::PromoPoint &P = R.GX.Region.Promos[PromoId];

  // Host-time accounting for specializeHostSeconds(): only the outermost
  // invocation accumulates, so re-entrant nested specializations (static
  // calls at specialize time) are not double-counted.
  const bool TimeOutermost = SpecTimerDepth++ == 0;
  const auto HostT0 = std::chrono::steady_clock::now();

  // Copy the span inputs into owned storage before anything can re-enter
  // the run-time: static calls at specialize time dispatch again on this
  // thread, and the front ends pass views of scratch buffers that a nested
  // dispatch recomposes.
  std::vector<Word> KeyCopy(Key.begin(), Key.end());
  std::vector<Word> Vals(R.GX.NumRegs);
  for (size_t I = 0; I != P.BakedRegs.size(); ++I)
    Vals[P.BakedRegs[I]] = I < BakedVals.size() ? BakedVals[I] : Word();
  for (size_t I = 0; I != P.KeyRegs.size(); ++I)
    Vals[P.KeyRegs[I]] = KeyVals[I];

  std::shared_ptr<CodeChain> Chain = newChain(Ordinal);

  // Staged emit plan: created once per region on first specialization,
  // holding only the contexts' key lists; the driver builds each block
  // program on the context's first placement. The caller serializes
  // specializeInto, and nested re-entrant runs happen on this thread after
  // the plan exists, so a nested run of the same region is a hit. The
  // plan depends only on the immutable GX and the core's fixed flags, so
  // it is never invalidated by chain eviction or Version churn.
  if (!R.Plan) {
    R.Plan = std::make_shared<cogen::EmitPlan>();
    R.Stats.PlanBytes += cogen::createEmitPlan(R.GX, *R.Plan);
    ++R.Stats.PlanBuilds;
  } else {
    ++R.Stats.PlanHits;
  }

  uint32_t Entry;
  {
    // The driver's scratch comes from the region's bump arena; the scope
    // rolls it back when the run (and any nested runs, which open nested
    // scopes) finishes. The driver is destroyed before the scope.
    BumpArena::Scope ScratchScope(R.Scratch);
    UnrollDriver Driver(*this, R, static_cast<uint32_t>(Ordinal), VMRef,
                        Flags, Chain->CO, Chain->ExitStubs,
                        Chain->DispatchStubs, Chain->OsrEntries, R.Scratch,
                        *R.Plan);
    Entry = Driver.run(P.TargetCtx, std::move(Vals));
  }
  Chain->Instrs = static_cast<uint32_t>(Chain->CO.Code.size());
  Chains.add(Chain);

  auto E = std::make_shared<SpecEntry>();
  E->Key = std::move(KeyCopy);
  E->Hash = hashWords(E->Key.data(), E->Key.size());
  E->Point = PromoId; // front ends with their own numbering overwrite this
  E->Region = static_cast<uint32_t>(Ordinal);
  E->PromoId = PromoId;
  E->EntryPC = Entry;
  E->Chain = std::move(Chain);
  E->Ordinal = E->Chain->Ordinal;

  --SpecTimerDepth;
  if (TimeOutermost)
    SpecHostSecs += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - HostT0)
                        .count();
  return E;
}

std::shared_ptr<CodeChain> RegionExecutionCore::restoreChain(
    size_t Ordinal, std::vector<vm::Instr> Code,
    std::map<ir::BlockId, uint32_t> ExitStubs,
    std::map<uint32_t, uint32_t> DispatchStubs,
    std::map<ir::BlockId, uint32_t> OsrEntries) {
  std::shared_ptr<CodeChain> Chain = newChain(Ordinal);
  Chain->CO.Code = std::move(Code);
  Chain->ExitStubs = std::move(ExitStubs);
  Chain->DispatchStubs = std::move(DispatchStubs);
  Chain->OsrEntries = std::move(OsrEntries);
  Chain->Instrs = static_cast<uint32_t>(Chain->CO.Code.size());
  Chains.add(Chain);
  return Chain;
}

std::shared_ptr<CodeChain> RegionExecutionCore::newChain(size_t Ordinal) {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  RegionState &R = *Regions[Ordinal];
  auto Chain = std::make_shared<CodeChain>();
  Chain->Ordinal = ChainCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  Chain->Region = static_cast<uint32_t>(Ordinal);
  Chain->CO.NumRegs = R.GX.NumRegs;
  Chain->CO.IsDynamicCode = true;
  Chain->CO.Executors = &Chain->ActiveRefs;
  Chain->CO.BaseAddr =
      Prog.allocCodeAddr(static_cast<uint64_t>(Flags.MaxRegionInstrs) * 4);
  if (R.ChainNamePrefix.empty())
    R.ChainNamePrefix = M.function(R.GX.FuncIdx).Name + ".chain";
  Chain->CO.Name = R.ChainNamePrefix + std::to_string(Chain->Ordinal);
  return Chain;
}

//===----------------------------------------------------------------------===//
// Capacity + eviction
//===----------------------------------------------------------------------===//

void RegionExecutionCore::admit(ResidencyBook &Book,
                                std::shared_ptr<SpecEntry> E,
                                const EvictFn &Evict) {
  assert(E->Region < Regions.size() && "bad region ordinal");
  if (Book.Regions.size() < Regions.size())
    Book.Regions.resize(Regions.size());
  ResidencyBook::Region &B = Book.Regions[E->Region];
  const SpecEntry *Fresh = E.get();
  B.Instrs += E->Chain->Instrs;
  B.Records.push_back(std::move(E));

  // CLOCK sweep: clear set reference bits; evict the first clear record
  // that is not the one just admitted. Two full laps guarantee a victim
  // (after one lap every bit is clear).
  const ChainBudget &Budget = Book.Budget;
  auto OverBudget = [&] {
    return (Budget.MaxEntries && B.Records.size() > Budget.MaxEntries) ||
           (Budget.MaxInstrs && B.Instrs > Budget.MaxInstrs);
  };
  size_t Guard = 2 * B.Records.size() + 2;
  while (OverBudget() && B.Records.size() > 1 && Guard--) {
    if (B.Hand >= B.Records.size())
      B.Hand = 0;
    std::shared_ptr<SpecEntry> &Cand = B.Records[B.Hand];
    if (Cand.get() == Fresh) {
      ++B.Hand;
      continue;
    }
    if (Cand->RefBit.exchange(false, std::memory_order_acq_rel)) {
      ++B.Hand; // recently used: second chance
      continue;
    }
    std::shared_ptr<SpecEntry> Victim = std::move(Cand);
    B.Records.erase(B.Records.begin() + static_cast<long>(B.Hand));
    // Hand stays: it now points at the next record.
    B.Instrs -= Victim->Chain->Instrs;
    ++Regions[Victim->Region]->Stats.Evictions;
    Evict(*Victim);
  }
}

void RegionExecutionCore::displaced(ResidencyBook &Book, const SpecEntry &E,
                                    ir::CachePolicy Policy) {
  assert(E.Region < Regions.size() && "bad region ordinal");
  // One-slot mismatch replacement is the inline runtime's historical
  // eviction event; hashed/indexed displacement (same key or same index
  // word) replaces rather than evicts.
  if (Policy == ir::CachePolicy::CacheOne ||
      Policy == ir::CachePolicy::CacheOneUnchecked)
    ++Regions[E.Region]->Stats.Evictions;

  assert(E.Region < Book.Regions.size() && "displaced before any admit");
  ResidencyBook::Region &B = Book.Regions[E.Region];
  auto It = std::find_if(
      B.Records.begin(), B.Records.end(),
      [&](const std::shared_ptr<SpecEntry> &R) { return R.get() == &E; });
  if (It == B.Records.end())
    return;
  B.Instrs -= E.Chain->Instrs;
  size_t Idx = static_cast<size_t>(It - B.Records.begin());
  B.Records.erase(It);
  if (B.Hand > Idx)
    --B.Hand;
}

void RegionExecutionCore::retireChain(CodeChain &Chain) {
  Chain.Evicted.store(true, std::memory_order_release);
  // VMs that adopted the translation keep executing off their own
  // references, but the table must not pin a retired chain's translation.
  Shared->release(Chain.CO.BaseAddr);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string RegionExecutionCore::disassembleRegion(size_t Ordinal) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  std::string Out;
  for (const std::shared_ptr<CodeChain> &C :
       Chains.chainsOfRegion(static_cast<uint32_t>(Ordinal)))
    Out += vm::disassemble(C->CO);
  return Out;
}

std::string RegionExecutionCore::printRegion(size_t Ordinal,
                                             const ir::Module &Mod) const {
  assert(Ordinal < Regions.size() && "bad region ordinal");
  const cogen::GenExtFunction &GX = Regions[Ordinal]->GX;
  return cogen::printGenExt(GX, Mod.function(GX.FuncIdx));
}

} // namespace runtime
} // namespace dyc
