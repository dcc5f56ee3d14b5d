#include "src/ds/registry.h"

namespace jiffy {

std::shared_ptr<DsState> DsRegistry::GetOrCreate(const std::string& job,
                                                 const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = states_[job][prefix];
  if (slot == nullptr) {
    slot = std::make_shared<DsState>();
  }
  return slot;
}

std::shared_ptr<DsState> DsRegistry::Find(const std::string& job,
                                          const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(job);
  if (it == states_.end()) {
    return nullptr;
  }
  auto st = it->second.find(prefix);
  return st == it->second.end() ? nullptr : st->second;
}

void DsRegistry::RemoveJob(const std::string& job) {
  std::lock_guard<std::mutex> lock(mu_);
  states_.erase(job);
}

size_t DsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [job, prefixes] : states_) {
    n += prefixes.size();
  }
  return n;
}

}  // namespace jiffy
