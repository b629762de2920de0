//===- runtime/Specializer.cpp - The inline DyC run-time ---------------------------===//

#include "runtime/Specializer.h"

namespace dyc {
namespace runtime {

void DycRuntime::addRegion(cogen::GenExtFunction GX) {
  Front F;
  for (const bta::PromoPoint &P : GX.Region.Promos)
    F.PromoCaches.emplace_back(P.Policy, P.IndexKeyPos);
  F.PromoMemos.resize(F.PromoCaches.size());
  Fronts.push_back(std::move(F));
  Core.addRegion(std::move(GX));
}

void DycRuntime::retire(vm::VM &VMRef, const SpecEntry &E,
                        ir::CachePolicy Policy) {
  VMRef.invalidateDecoded(E.Chain->CO);
  Core.displaced(Core.book(), E, Policy);
  Core.retireChain(*E.Chain);
}

void DycRuntime::releaseRegion(vm::VM &VMRef, size_t Ordinal) {
  if (Ordinal >= Fronts.size() || Ordinal >= Core.book().Regions.size())
    return;
  // The book holds exactly the region's published entries; copied, since
  // retiring an entry takes it out of the book.
  std::vector<std::shared_ptr<SpecEntry>> Resident =
      Core.book().Regions[Ordinal].Records;
  for (const std::shared_ptr<SpecEntry> &E : Resident) {
    CodeCache &Cache = Fronts[Ordinal].PromoCaches[E->PromoId];
    // Bumps the epoch: inline-cache memos of the entry die here.
    Cache.erase(E->Key);
    retire(VMRef, *E, Cache.policy());
  }
}

vm::RuntimeHook::Target DycRuntime::dispatch(vm::VM &VMRef, int64_t PointId,
                                             std::vector<Word> &Regs) {
  uint32_t Ord, PromoId;
  const DispatchSite *Site = nullptr;
  SiteMemo *Memo = nullptr;
  if (PointId >= 0) {
    Ord = static_cast<uint32_t>(PointId >> 16);
    PromoId = static_cast<uint32_t>(PointId & 0xffff);
    assert(Ord < Fronts.size() && "bad region ordinal");
    if (ICEnabled)
      Memo = &Fronts[Ord].PromoMemos[PromoId];
  } else {
    size_t SiteIdx = static_cast<size_t>(-(PointId + 1));
    if (ICEnabled) {
      if (SiteIdx >= SiteMemos.size())
        SiteMemos.resize(SiteIdx + 1);
      Memo = &SiteMemos[SiteIdx];
    }
    if (Memo && Memo->Resolved) {
      // The memo caches the site decode so the steady-state path skips
      // the core's guarded site table entirely.
      Ord = Memo->Ord;
      PromoId = Memo->PromoId;
      Site = Memo->Site;
    } else {
      const DispatchSite &S = Core.siteRef(SiteIdx);
      Site = &S;
      Ord = S.RegionOrd;
      PromoId = S.PromoId;
      if (Memo) {
        Memo->Site = Site;
        Memo->Ord = Ord;
        Memo->PromoId = PromoId;
        Memo->Resolved = true;
      }
    }
  }
  assert(Ord < Core.numRegions() && "bad region ordinal");
  Front &F = Fronts[Ord];
  const bta::PromoPoint &P = Core.promo(Ord, PromoId);
  RegionStats &St = Core.statsMutable(Ord);
  CodeCache &Cache = F.PromoCaches[PromoId];

  // Inline-cache fast path: valid while the cache's epoch is unchanged
  // (no insert/erase has run) and — except under cache_one_unchecked,
  // which never compares keys — while the promoted registers still hold
  // the memoized values. Baked values are constant per site, so the
  // promoted compare covers the whole key. The charge and the counter
  // replay are exactly what the skipped lookup would have produced: the
  // memo eliminates host hashing and probing, never model cycles.
  if (Memo && Memo->Entry && Memo->Epoch == Cache.epoch()) {
    bool Match = true;
    if (Cache.policy() != ir::CachePolicy::CacheOneUnchecked)
      for (uint32_t I = 0; I != Memo->NumVals; ++I)
        if (Regs[P.KeyRegs[I]].Bits != Memo->Vals[I].Bits) {
          Match = false;
          break;
        }
    if (Match) {
      chargeDispatchCost(VMRef, Cache.policy(), Memo->KeyWords,
                         Memo->Probes);
      ++F.Lookups;
      F.Probes += Memo->Probes;
      ++St.Dispatches;
      ++St.CacheHits;
      ++ICHits;
      const SpecEntry *E = Memo->Entry;
      assert(E->Chain && "inline cache memoized a retired entry");
      E->RefBit.store(true, std::memory_order_release);
      // Single-writer executor count: this front end is single-client, so
      // load + store produces exactly fetch_add's value while staying
      // atomic for concurrent stats readers — and skips the locked RMW
      // that would otherwise dominate the fast path.
      E->Chain->ActiveRefs.store(
          E->Chain->ActiveRefs.load(std::memory_order_relaxed) + 1,
          std::memory_order_release);
      return {&E->Chain->CO, E->EntryPC};
    }
  }

  // Compose the cache key once, into retained-capacity scratch: baked
  // specialize-time values, then the promoted variables' current values.
  // The miss path below slices this same buffer instead of recomposing.
  KeyScratch.clear();
  size_t BakedWords = 0;
  if (Site) {
    KeyScratch.append(Site->BakedVals.data(), Site->BakedVals.size());
    BakedWords = KeyScratch.size();
  }
  for (ir::Reg Rg : P.KeyRegs)
    KeyScratch.push_back(Regs[Rg]);
  WordSpan Key = KeyScratch.span();

  CacheResult CR = Cache.lookup(Key);
  chargeDispatchCost(VMRef, Cache.policy(),
                     static_cast<unsigned>(Key.size()), CR.Probes);
  ++F.Lookups;
  F.Probes += CR.Probes;

  ++St.Dispatches;
  if (const SpecEntry *E = CR.Entry) {
    ++St.CacheHits;
    assert(E->Chain && "cache hit on a retired entry");
    E->RefBit.store(true, std::memory_order_release);
    E->Chain->ActiveRefs.fetch_add(1, std::memory_order_acq_rel);
    // Memoize only real-lookup hits: a hit's probe count is reproducible
    // under an unchanged epoch, whereas the table state after the miss
    // path's insert is not observed here.
    if (Memo && (P.KeyRegs.size() <= SiteMemo::MaxKeyVals ||
                 Cache.policy() == ir::CachePolicy::CacheOneUnchecked)) {
      Memo->Entry = E;
      Memo->Epoch = Cache.epoch();
      Memo->KeyWords = static_cast<uint32_t>(Key.size());
      Memo->Probes = CR.Probes;
      Memo->NumVals = P.KeyRegs.size() <= SiteMemo::MaxKeyVals
                          ? static_cast<uint32_t>(P.KeyRegs.size())
                          : 0; // unchecked: the fast path never compares
      for (uint32_t I = 0; I != Memo->NumVals; ++I)
        Memo->Vals[I] = Regs[P.KeyRegs[I]];
    }
    return {&E->Chain->CO, E->EntryPC};
  }
  ++St.CacheMisses;

  // Memo and KeyScratch are dead past this call: specialization re-enters
  // dispatch for static calls, growing SiteMemos and recomposing the
  // scratch. specializeInto copies its span inputs into owned storage
  // before running the generating extension, and E->Key carries the key
  // for the publish below.
  std::shared_ptr<SpecEntry> E =
      Core.specializeInto(Ord, VMRef, PromoId, Key,
                          WordSpan(Key.Data, BakedWords),
                          Key.subspan(BakedWords));
  VMRef.chargeDynComp(VMRef.costModel().SpecCacheInsert);

  // Publish into the dispatch cache; retire whatever it displaced
  // (cache_one mismatch replacement).
  if (std::shared_ptr<SpecEntry> D = Cache.insert(E))
    retire(VMRef, *D, Cache.policy());

  // Account the new chain against the region's budget; CLOCK victims are
  // unpublished from their dispatch cache before their chain is retired.
  // Dropping the VM's predecoded translation here (not just at the safe
  // point) keeps the translation cache from pinning memory for chains the
  // registry is about to free.
  Core.admit(Core.book(), E, [this, &VMRef](const SpecEntry &Victim) {
    Fronts[Victim.Region].PromoCaches[Victim.PromoId].erase(Victim.Key);
    VMRef.invalidateDecoded(Victim.Chain->CO);
    Core.retireChain(*Victim.Chain);
  });

  // The client enters the fresh entry: referenced, as on a hit (and as a
  // server client blocked on the same miss marks it).
  E->RefBit.store(true, std::memory_order_release);
  E->Chain->ActiveRefs.fetch_add(1, std::memory_order_acq_rel);
  return {&E->Chain->CO, E->EntryPC};
}

double DycRuntime::avgCacheProbes(size_t Ordinal) const {
  assert(Ordinal < Fronts.size() && "bad region ordinal");
  const Front &F = Fronts[Ordinal];
  return F.Lookups ? static_cast<double>(F.Probes) / F.Lookups : 0.0;
}

} // namespace runtime
} // namespace dyc
