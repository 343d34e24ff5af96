#include "core/write_back.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace tierbase {

WriteBackManager::WriteBackManager(StorageAdapter* storage,
                                   WriteBackOptions options, Clock* clock)
    : storage_(storage), options_(options), clock_(clock) {
  flusher_ = std::thread(&WriteBackManager::FlusherLoop, this);
}

WriteBackManager::~WriteBackManager() {
  FlushAll();
  {
    common::MutexLock lock(&mu_);
    shutting_down_ = true;
    flush_cv_.SignalAll();
  }
  if (flusher_.joinable()) flusher_.join();
}

Status WriteBackManager::MarkDirty(const Slice& key, const Slice& value,
                                   bool is_delete) {
  return MarkDirtyBatch({key}, {value}, is_delete);
}

Status WriteBackManager::MarkDirtyBatch(const std::vector<Slice>& keys,
                                        const std::vector<Slice>& values,
                                        bool is_delete) {
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!flush_error_.ok()) return flush_error_;
    // Backpressure: block while the dirty set is at capacity and the key
    // is not already pending (§4.1.2 "a backpressure mechanism is
    // activated when dirty data approaches a predefined threshold").
    while (dirty_.size() >= options_.max_dirty &&
           dirty_.find(keys[i].ToString()) == dirty_.end()) {
      ++stats_.backpressure_waits;
      flush_cv_.SignalAll();
      space_cv_.Wait();
      if (!flush_error_.ok()) return flush_error_;
    }
    auto [it, inserted] = dirty_.try_emplace(keys[i].ToString());
    ++stats_.updates;
    DirtyEntry& e = it->second;
    if (inserted) {
      // A new key joins the newest end.
      e.key = &it->first;
      e.dirtied_at = clock_->NowMicros();
      e.older = newest_;
      (newest_ != nullptr ? newest_->newer : oldest_) = &e;
      newest_ = &e;
    } else {
      ++stats_.merged_updates;  // Keeps its place: merges, never starves.
    }
    e.value.assign(values[i].data(), values[i].size());
    e.is_delete = is_delete;
    e.gen = next_gen_++;
  }
  if (dirty_.size() >= options_.flush_threshold) {
    flush_cv_.SignalAll();
  }
  return Status::OK();
}

bool WriteBackManager::IsDirty(const Slice& key) const {
  common::MutexLock lock(&mu_);
  return dirty_.find(key.ToString()) != dirty_.end();
}

bool WriteBackManager::GetDirty(const Slice& key, std::string* value,
                                bool* is_delete) const {
  std::vector<bool> found, deletes;
  std::vector<std::string> values;
  GetDirtyBatch({key}, &found, &values, &deletes);
  if (!found[0]) return false;
  *value = std::move(values[0]);
  *is_delete = deletes[0];
  return true;
}

void WriteBackManager::GetDirtyBatch(const std::vector<Slice>& keys,
                                     std::vector<bool>* found,
                                     std::vector<std::string>* values,
                                     std::vector<bool>* deletes) const {
  const size_t n = keys.size();
  found->assign(n, false);
  values->assign(n, std::string());
  deletes->assign(n, false);
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < n; ++i) {
    auto it = dirty_.find(keys[i].ToString());
    if (it == dirty_.end()) continue;
    (*found)[i] = true;
    (*values)[i] = it->second.value;
    (*deletes)[i] = it->second.is_delete;
  }
}

Result<size_t> WriteBackManager::FlushBatch() {
  // Snapshot the oldest entries under the lock, write them outside, then
  // remove those not re-dirtied during the write (a re-dirtied entry keeps
  // its place at the old end and goes first next time).
  std::vector<StorageAdapter::BatchOp> batch;
  std::vector<uint64_t> gens;
  {
    common::MutexLock lock(&mu_);
    for (const DirtyEntry* e = oldest_;
         e != nullptr && batch.size() < options_.max_batch; e = e->newer) {
      batch.push_back({*e->key, e->value, e->is_delete});
      gens.push_back(e->gen);
    }
  }
  if (batch.empty()) return size_t{0};

  Status s = storage_->WriteBatch(batch);

  common::MutexLock lock(&mu_);
  if (!s.ok()) {
    // Leave entries dirty; record the error so writers observe it. The
    // flusher retries with backoff and a later success clears the error.
    flush_error_ = s;
    ++stats_.flush_failures;
    ++consecutive_flush_failures_;
    space_cv_.SignalAll();
    clean_cv_.SignalAll();  // FlushAll re-checks its failure bound.
    return s;
  }
  if (!flush_error_.ok()) {
    // Storage healed: un-latch so writers stop bouncing.
    flush_error_ = Status::OK();
    ++stats_.flush_retries;
  }
  consecutive_flush_failures_ = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto it = dirty_.find(batch[i].key);
    if (it == dirty_.end() || it->second.gen != gens[i]) continue;
    DirtyEntry& e = it->second;
    (e.older != nullptr ? e.older->newer : oldest_) = e.newer;
    (e.newer != nullptr ? e.newer->older : newest_) = e.older;
    dirty_.erase(it);
  }
  ++stats_.flush_batches;
  stats_.flushed_ops += batch.size();
  space_cv_.SignalAll();
  if (dirty_.empty()) clean_cv_.SignalAll();
  return batch.size();
}

void WriteBackManager::FlusherLoop() {
  uint64_t backoff_micros = 0;  // 0 = healthy, no backoff pending.
  while (true) {
    {
      common::MutexLock lock(&mu_);
      if (backoff_micros > 0) {
        // Retry backoff after a failed flush. Deliberately ignores
        // flush_waiters_/threshold wakeups: hammering a failing storage
        // tier harder doesn't help.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(backoff_micros);
        while (!shutting_down_ && flush_cv_.WaitUntil(deadline)) {
        }
      } else {
        auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.flush_interval_micros);
        while (!(shutting_down_ || flush_waiters_ > 0 ||
                 dirty_.size() >= options_.flush_threshold) &&
               flush_cv_.WaitUntil(deadline)) {
        }
      }
      if (shutting_down_ &&
          (dirty_.empty() ||
           consecutive_flush_failures_ >= options_.max_flush_failures)) {
        return;  // Clean, or the storage tier stayed down: give up.
      }
    }
    Result<size_t> flushed = FlushBatch();
    // Keep draining without sleeping while there is a backlog.
    while (flushed.ok() && *flushed > 0) {
      {
        common::MutexLock lock(&mu_);
        if (dirty_.size() < options_.flush_threshold && !shutting_down_ &&
            flush_waiters_ == 0) {
          break;
        }
      }
      flushed = FlushBatch();
    }
    if (!flushed.ok()) {
      backoff_micros =
          backoff_micros == 0
              ? options_.retry_backoff_micros
              : std::min(backoff_micros * 2, options_.retry_backoff_max_micros);
      continue;
    }
    backoff_micros = 0;
    {
      common::MutexLock lock(&mu_);
      if (shutting_down_ && dirty_.empty()) return;
    }
  }
}

Status WriteBackManager::FlushAll() {
  common::MutexLock lock(&mu_);
  ++flush_waiters_;
  while (!dirty_.empty() && !shutting_down_ &&
         consecutive_flush_failures_ < options_.max_flush_failures) {
    flush_cv_.SignalAll();
    clean_cv_.WaitFor(5'000);
  }
  --flush_waiters_;
  if (!dirty_.empty() && !flush_error_.ok()) return flush_error_;
  return Status::OK();
}

size_t WriteBackManager::dirty_count() const {
  common::MutexLock lock(&mu_);
  return dirty_.size();
}

uint64_t WriteBackManager::oldest_dirty_age_micros() const {
  common::MutexLock lock(&mu_);
  if (oldest_ == nullptr) return 0;
  const uint64_t now = clock_->NowMicros();
  return now > oldest_->dirtied_at ? now - oldest_->dirtied_at : 0;
}

WriteBackManager::Stats WriteBackManager::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

Status WriteBackManager::flush_error() const {
  common::MutexLock lock(&mu_);
  return flush_error_;
}

}  // namespace tierbase
