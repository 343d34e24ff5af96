// Deferred cache-fetching (paper §4.1.2): when concurrent operations miss
// the cache, their storage reads are merged into batched MultiReads,
// "reducing read requests and minimizing costs in both tiers".
//
// There is no forming window. The first misser becomes the leader and
// reads at once; misses that arrive while its MultiRead is in flight
// register and are picked up by the leader's next round, and a miss on a
// key already in flight waits for that read instead of issuing its own.
// Batching therefore comes from concurrency alone: a lone miss pays one
// storage call and no added wait, and the slower the storage tier, the
// more misses each call carries.

#ifndef TIERBASE_CORE_DEFERRED_FETCH_H_
#define TIERBASE_CORE_DEFERRED_FETCH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/storage_adapter.h"

namespace tierbase {

class DeferredFetcher {
 public:
  explicit DeferredFetcher(StorageAdapter* storage) : storage_(storage) {}

  /// Fetches `key` from storage: a one-key FetchMany. Returns NotFound
  /// when the key is absent from the storage tier.
  Status Fetch(const Slice& key, std::string* value);

  /// Fetches a batch, deduplicating against concurrently in-flight fetches
  /// of the same keys and against repeats within the batch. Per-key
  /// outcomes land in statuses[i] (NotFound for absent keys).
  void FetchMany(const std::vector<Slice>& keys,
                 std::vector<std::string>* values,
                 std::vector<Status>* statuses);

  struct Stats {
    uint64_t fetches = 0;
    uint64_t batch_calls = 0;  // fetches/batch_calls = batching factor.
    uint64_t shared = 0;       // Fetches that piggybacked on another's read.
  };
  Stats GetStats() const;

 private:
  /// Keys per storage MultiRead.
  static constexpr size_t kMaxBatch = 64;

  struct PendingKey {
    bool done = false;
    bool found = false;
    std::string value;
    Status error;
  };

  /// Leader: issues MultiReads until no pending keys remain, then clears
  /// leader_active_ and wakes the waiters.
  void LeaderDrain();

  StorageAdapter* storage_;

  mutable common::Mutex mu_;
  common::CondVar cv_{&mu_};
  /// Keys whose storage read has not completed (queued, or in the
  /// leader's MultiRead right now). The PendingKey payload is written
  /// by the leader under mu_ and read by waiters only after observing
  /// done == true under mu_.
  std::unordered_map<std::string, std::shared_ptr<PendingKey>> pending_
      GUARDED_BY(mu_);
  bool leader_active_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_DEFERRED_FETCH_H_
