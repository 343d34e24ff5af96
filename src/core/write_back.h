// Write-back machinery (paper §4.1.2): dirty tracking, deferred batched
// flushes with per-key update merging, interval-bounded staleness, and a
// backpressure mechanism when dirty data approaches its cap.
//
// Dirty entries are kept in first-dirtied order and flushed oldest first.
// Re-dirtying a pending key updates it in place without moving it, so a
// hot key merges every write of one dirty residence into one storage op,
// and no entry waits behind a stream of newer ones: its residence is
// bounded by the flush rate, not by luck. The oldest dirty entries are
// also the ones at the cache's LRU tail, so flushing them first unpins
// exactly what the evictor needs.

#ifndef TIERBASE_CORE_WRITE_BACK_H_
#define TIERBASE_CORE_WRITE_BACK_H_

#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/options.h"
#include "core/storage_adapter.h"

namespace tierbase {

class WriteBackManager {
 public:
  WriteBackManager(StorageAdapter* storage, WriteBackOptions options,
                   Clock* clock = Clock::Real());
  ~WriteBackManager();

  /// Records a dirty update (latest value wins — multiple updates to the
  /// same key merge into one storage op, "Optimizing Update" in §4.1.2).
  /// Blocks when max_dirty is reached (backpressure).
  Status MarkDirty(const Slice& key, const Slice& value, bool is_delete);

  /// Batched MarkDirty for keys[i] = values[i]: the dirty-set mutex is
  /// taken once for the whole batch (released only while backpressure
  /// blocks mid-batch). Flush errors are sticky, so on one the batch
  /// aborts immediately — the remaining ops would fail identically.
  Status MarkDirtyBatch(const std::vector<Slice>& keys,
                        const std::vector<Slice>& values);

  /// True while the key has an unflushed update; such keys must not be
  /// evicted from the cache (the eviction filter consults this).
  bool IsDirty(const Slice& key) const;

  /// Reads the dirty (not yet flushed) value if present. Lets reads see
  /// pending writes without touching storage.
  bool GetDirty(const Slice& key, std::string* value, bool* is_delete) const;

  /// Batched GetDirty: one dirty-set lock acquisition for the whole
  /// batch. found[i]/values[i]/deletes[i] are filled per key.
  void GetDirtyBatch(const std::vector<Slice>& keys,
                     std::vector<bool>* found,
                     std::vector<std::string>* values,
                     std::vector<bool>* deletes) const;

  /// Flushes everything and blocks until clean (shutdown, WaitIdle).
  Status FlushAll();

  size_t dirty_count() const;

  /// How long the oldest unflushed entry has been dirty (0 when clean).
  uint64_t oldest_dirty_age_micros() const;

  struct Stats {
    uint64_t updates = 0;
    uint64_t merged_updates = 0;   // Updates absorbed by a pending entry.
    uint64_t flush_batches = 0;
    uint64_t flushed_ops = 0;
    uint64_t backpressure_waits = 0;
    uint64_t flush_failures = 0;   // Storage batches that errored.
    uint64_t flush_retries = 0;    // Successful flushes that cleared an
                                   // error (storage healed).
  };
  Stats GetStats() const;

  /// The last flush error, or OK. No longer latched forever: retried with
  /// backoff by the flusher and cleared by the next successful flush.
  Status flush_error() const;

 private:
  /// Entries form an intrusive list in first-dirtied order. Map nodes
  /// never move, so the links and `key` (the map's own key) stay valid
  /// until the entry is erased.
  struct DirtyEntry {
    std::string value;
    bool is_delete = false;
    uint64_t gen = 0;
    uint64_t dirtied_at = 0;  // Clock micros of the first dirtying.
    const std::string* key = nullptr;
    DirtyEntry* newer = nullptr;
    DirtyEntry* older = nullptr;
  };

  /// Records one update under mu_: a new key joins the newest end, a
  /// pending one is updated in place.
  void DirtyLocked(const Slice& key, const Slice& value, bool is_delete)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// Blocks while the dirty set is full and `key` is not already pending;
  /// returns the sticky flush error if one appears.
  Status AwaitSpaceLocked(const Slice& key) EXCLUSIVE_LOCKS_REQUIRED(mu_);

  void FlusherLoop();
  /// Takes up to max_batch dirty entries and writes them as one batch.
  /// Returns number flushed.
  Result<size_t> FlushBatch();

  StorageAdapter* storage_;
  WriteBackOptions options_;
  Clock* clock_;

  mutable common::Mutex mu_;
  common::CondVar flush_cv_{&mu_};  // Wakes the flusher.
  common::CondVar space_cv_{&mu_};  // Wakes backpressured writers.
  common::CondVar clean_cv_{&mu_};  // Signals "all clean".
  std::unordered_map<std::string, DirtyEntry> dirty_ GUARDED_BY(mu_);
  DirtyEntry* oldest_ GUARDED_BY(mu_) = nullptr;  // Flushed first.
  DirtyEntry* newest_ GUARDED_BY(mu_) = nullptr;
  uint64_t next_gen_ GUARDED_BY(mu_) = 1;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  int flush_waiters_ GUARDED_BY(mu_) = 0;  // FlushAll calls in progress;
                                           // while > 0 the flusher flushes
                                           // regardless of
                                           // threshold/interval.

  std::thread flusher_;
  Stats stats_ GUARDED_BY(mu_);
  Status flush_error_ GUARDED_BY(mu_);  // Cleared on flush success.
  size_t consecutive_flush_failures_ GUARDED_BY(mu_) = 0;  // Bounds
                                                           // FlushAll and
                                                           // shutdown waits.
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_WRITE_BACK_H_
