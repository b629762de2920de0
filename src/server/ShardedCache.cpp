//===- server/ShardedCache.cpp -----------------------------------------------------===//

#include "server/ShardedCache.h"

namespace dyc {
namespace server {

size_t ShardedCache::addPoint(ir::CachePolicy Policy, uint32_t IndexPos) {
  Points.emplace_back(Policy, IndexPos);
  return Points.size() - 1;
}

void ShardedCache::publish(PointCache &P,
                           std::unique_ptr<const runtime::CodeCache> Next) {
  P.Current.store(Next.get(), std::memory_order_release);
  if (P.Owner)
    P.Retired.push_back(std::move(P.Owner));
  P.Owner = std::move(Next);
}

std::shared_ptr<CacheRecord> ShardedCache::findRecord(size_t Point,
                                                      WordSpan Key) const {
  assert(Point < Points.size() && "bad cache point");
  std::lock_guard<std::mutex> Lock(stripeFor(Point));
  return Points[Point].Current.load(std::memory_order_relaxed)->find(Key);
}

std::shared_ptr<CacheRecord>
ShardedCache::insert(std::shared_ptr<CacheRecord> Rec) {
  assert(Rec->Point < Points.size() && "bad cache point");
  PointCache &P = Points[Rec->Point];
  std::lock_guard<std::mutex> Lock(stripeFor(Rec->Point));
  std::unique_ptr<runtime::CodeCache> Next = copyOf(P);
  std::shared_ptr<CacheRecord> Displaced = Next->insert(std::move(Rec));
  publish(P, std::move(Next));
  return Displaced;
}

void ShardedCache::erase(const CacheRecord &Rec) {
  assert(Rec.Point < Points.size() && "bad cache point");
  PointCache &P = Points[Rec.Point];
  std::lock_guard<std::mutex> Lock(stripeFor(Rec.Point));
  std::unique_ptr<runtime::CodeCache> Next = copyOf(P);
  Next->erase(Rec.Key);
  publish(P, std::move(Next));
}

size_t ShardedCache::trimGraveyard() {
  // Lock every stripe (fixed order; no other path takes two at once).
  for (std::mutex &M : Stripes)
    M.lock();
  size_t Freed = 0;
  for (PointCache &P : Points) {
    Freed += P.Retired.size();
    P.Retired.clear();
  }
  for (auto It = Stripes.rbegin(); It != Stripes.rend(); ++It)
    It->unlock();
  return Freed;
}

size_t ShardedCache::retiredSnapshots() const {
  size_t N = 0;
  for (size_t I = 0; I != Points.size(); ++I) {
    std::lock_guard<std::mutex> Lock(stripeFor(I));
    N += Points[I].Retired.size();
  }
  return N;
}

} // namespace server
} // namespace dyc
