//===- server/SpecJob.cpp ----------------------------------------------------------===//

#include "server/SpecJob.h"

namespace dyc {
namespace server {

std::shared_ptr<SpecJob> JobQueue::submit(std::unique_ptr<SpecJob> Job,
                                          bool &Created) {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    // Re-check the in-flight table after every wait: another producer may
    // have created this key's job while we were blocked on capacity.
    auto It = InFlight.find(Job->Id);
    if (It != InFlight.end()) {
      Created = false;
      return It->second; // coalesce onto the in-flight job
    }
    if (Down) {
      Created = false;
      return nullptr;
    }
    if (Ready.size() < Capacity)
      break;
    NotFull.wait(Lock);
  }
  std::shared_ptr<SpecJob> S(std::move(Job));
  InFlight.emplace(S->Id, S);
  Ready.push_back(S);
  Created = true;
  NotEmpty.notify_one();
  return S;
}

std::shared_ptr<SpecJob> JobQueue::pop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  NotEmpty.wait(Lock, [&] { return !Ready.empty() || Down; });
  if (Ready.empty())
    return nullptr;
  std::shared_ptr<SpecJob> S = std::move(Ready.front());
  Ready.pop_front();
  NotFull.notify_one();
  return S;
}

void JobQueue::finish(const JobKey &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase(Id);
}

void JobQueue::shutdown() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Down = true;
  NotEmpty.notify_all();
  NotFull.notify_all();
}

size_t JobQueue::pending() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return InFlight.size();
}

} // namespace server
} // namespace dyc
