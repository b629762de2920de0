//===- server/ChainStore.cpp -------------------------------------------------------===//

#include "server/ChainStore.h"

#include <algorithm>

namespace dyc {
namespace server {

namespace {

bool sameKey(const std::vector<Word> &A, WordSpan B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Bits != B[I].Bits)
      return false;
  return true;
}

} // namespace

StoredChain *ChainStore::find(uint64_t DedupKey, uint32_t Ord,
                              uint32_t PromoId, WordSpan Key) {
  auto It = Buckets.find(DedupKey);
  if (It == Buckets.end())
    return nullptr;
  for (StoredChain &SC : It->second)
    if (SC.Ord == Ord && SC.PromoId == PromoId && sameKey(SC.Key, Key))
      return &SC;
  return nullptr;
}

StoredChain &ChainStore::insert(StoredChain SC) {
  std::list<StoredChain> &Bucket = Buckets[SC.DedupKey];
  Bucket.push_back(std::move(SC));
  Count.fetch_add(1, std::memory_order_relaxed);
  return Bucket.back();
}

std::shared_ptr<CodeChain> ChainStore::release(uint64_t DedupKey,
                                               const CodeChain &Chain) {
  auto BIt = Buckets.find(DedupKey);
  assert(BIt != Buckets.end() && "release of a chain the store never owned");
  for (auto It = BIt->second.begin(); It != BIt->second.end(); ++It) {
    if (It->Chain.get() != &Chain)
      continue;
    assert(It->Refs > 0 && "release without a publish reference");
    if (--It->Refs > 0)
      return nullptr;
    std::shared_ptr<CodeChain> Out = std::move(It->Chain);
    BIt->second.erase(It);
    if (BIt->second.empty())
      Buckets.erase(BIt);
    Count.fetch_sub(1, std::memory_order_relaxed);
    return Out;
  }
  assert(false && "release of a chain the store never owned");
  return nullptr;
}

std::vector<const StoredChain *> ChainStore::byOrdinal() const {
  std::vector<const StoredChain *> Out;
  Out.reserve(Count.load(std::memory_order_relaxed));
  for (const auto &KV : Buckets)
    for (const StoredChain &SC : KV.second)
      Out.push_back(&SC);
  std::sort(Out.begin(), Out.end(),
            [](const StoredChain *A, const StoredChain *B) {
              return A->Chain->Ordinal < B->Chain->Ordinal;
            });
  return Out;
}

} // namespace server
} // namespace dyc
