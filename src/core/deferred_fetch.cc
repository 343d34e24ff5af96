#include "core/deferred_fetch.h"

namespace tierbase {

void DeferredFetcher::LeaderDrain() {
  // Keep draining until no keys are pending: misses that registered while
  // a MultiRead was in flight ride the next one rather than being
  // stranded.
  while (true) {
    std::vector<std::string> keys;
    std::vector<std::shared_ptr<PendingKey>> entries;
    {
      common::MutexLock lock(&mu_);
      for (auto& [k, p] : pending_) {
        if (keys.size() >= kMaxBatch) break;
        keys.push_back(k);
        entries.push_back(p);
      }
      if (keys.empty()) {
        leader_active_ = false;
        return;
      }
    }

    std::vector<std::string> values;
    std::vector<bool> found;
    Status s = storage_->MultiRead(keys, &values, &found);

    {
      common::MutexLock lock(&mu_);
      ++stats_.batch_calls;
      for (size_t i = 0; i < entries.size(); ++i) {
        entries[i]->done = true;
        if (s.ok()) {
          entries[i]->found = found[i];
          entries[i]->value = std::move(values[i]);
        } else {
          entries[i]->error = s;
        }
        pending_.erase(keys[i]);
      }
    }
    cv_.SignalAll();
  }
}

Status DeferredFetcher::Fetch(const Slice& key, std::string* value) {
  std::vector<std::string> values;
  std::vector<Status> statuses;
  FetchMany({key}, &values, &statuses);
  if (statuses[0].ok()) *value = std::move(values[0]);
  return statuses[0];
}

void DeferredFetcher::FetchMany(const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, std::string());
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  // Register every key, sharing the read of any key already pending, and
  // drain as leader unless one is already active.
  std::vector<std::shared_ptr<PendingKey>> mine(n);
  bool leader = false;
  {
    common::MutexLock lock(&mu_);
    for (size_t i = 0; i < n; ++i) {
      ++stats_.fetches;
      auto [it, inserted] = pending_.try_emplace(keys[i].ToString());
      if (inserted) {
        it->second = std::make_shared<PendingKey>();
      } else {
        ++stats_.shared;
      }
      mine[i] = it->second;
    }
    if (!leader_active_) {
      leader_active_ = true;
      leader = true;
    }
  }

  if (leader) LeaderDrain();

  {
    common::MutexLock lock(&mu_);
    for (const auto& p : mine) {
      while (!p->done) cv_.Wait();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!mine[i]->error.ok()) {
      (*statuses)[i] = mine[i]->error;
    } else if (!mine[i]->found) {
      (*statuses)[i] = Status::NotFound("");
    } else {
      (*values)[i] = mine[i]->value;
    }
  }
}

DeferredFetcher::Stats DeferredFetcher::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace tierbase
