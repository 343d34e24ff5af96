// Write-through machinery (paper §4.1.1): per-key write queues keep
// sequential order, and write coalescing merges concurrent writes to the
// same key into one storage update ("similar to group commit"), lowering
// the miss penalty PC_miss.
//
// PerKeyCoalescer has one storage function, the batched one, and one entry
// point, WriteBatch (Write is a one-op batch). Each key has one slot: the
// first writer to find it free becomes the key's leader and writes its op
// to storage, as part of its batch. Writers that find the slot taken leave
// their op as the key's *latest* pending value, and the leader keeps
// writing the latest pending value until none is newer. Every writer
// returns once a storage write covering a generation >= its own has
// finished, so redundant updates collapse while write-through semantics
// hold. After each storage call, still holding the slots of the keys it
// wrote and outside the coalescer's lock, the leader runs the ack callback:
// per key, acks come in storage order, so a cache installed there never
// goes back to a superseded value.

#ifndef TIERBASE_CORE_WRITE_THROUGH_H_
#define TIERBASE_CORE_WRITE_THROUGH_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "common/status.h"

namespace tierbase {

class PerKeyCoalescer {
 public:
  /// One update: the key's new value, or its deletion.
  struct BatchWrite {
    std::string key;
    std::string value;
    bool is_delete = false;
    uint64_t ttl_micros = 0;  // Passed to the ack; storage keeps no TTL.
  };
  /// Pushes a batch of updates to the storage tier in one remote call.
  using BatchStorageWriteFn =
      std::function<Status(const std::vector<BatchWrite>& ops)>;
  /// Runs after each storage call with the ops it carried and its outcome,
  /// before their writers are released, with their key slots held and the
  /// coalescer's lock not held.
  using AckFn =
      std::function<void(const std::vector<BatchWrite>& ops, const Status& s)>;

  explicit PerKeyCoalescer(BatchStorageWriteFn write_fn, bool coalesce = true,
                           AckFn on_ack = nullptr)
      : write_fn_(std::move(write_fn)),
        on_ack_(std::move(on_ack)),
        coalesce_(coalesce) {}

  /// Write-through one update: a one-op WriteBatch.
  Status Write(const Slice& key, const Slice& value, bool is_delete);

  /// Write-through a batch: duplicate keys coalesce to the last op, the ops
  /// of keys with a free slot go to storage as ONE call, and ops of keys
  /// with an active leader are left to that leader (keeping per-key order).
  /// Returns once each op, or a newer one for its key, has been written;
  /// per-op outcomes land in statuses[i]. Without coalescing, every op is
  /// its own storage call, in per-key FIFO order.
  void WriteBatch(std::vector<BatchWrite> ops, std::vector<Status>* statuses);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t storage_writes = 0;  // submitted - storage_writes = coalesced.
    uint64_t batch_calls = 0;     // Storage calls made.
  };
  Stats GetStats() const;

 private:
  /// Per-key coalescing state. Every field is guarded by the coalescer's
  /// mu_ (the cv is bound to it); KeyState lives in keys_, which the same
  /// mutex guards, so the analysis checks access through the map.
  struct KeyState {
    explicit KeyState(common::Mutex* mu) : cv(mu) {}

    uint64_t next_gen = 1;
    uint64_t flushed_gen = 0;    // Highest generation durably in storage.
    uint64_t processed_gen = 0;  // Highest generation whose write finished.
    bool in_flight = false;      // The key's slot: a leader holds it.
    bool pending = false;        // `latest` awaits the leader's flush.
    BatchWrite latest;
    uint64_t latest_gen = 0;
    Status last_error;
    int waiters = 0;
    common::CondVar cv;
  };

  /// The storage call and its ack; runs without mu_.
  Status Flush(const std::vector<BatchWrite>& ops);
  /// Records the outcome of a storage write of `ks` at `gen`.
  void FinishLocked(KeyState* ks, uint64_t gen, const Status& s)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// Leader drain loop: flushes the key's latest pending op until no newer
  /// one arrives. Releases mu_ around storage calls (re-held on return).
  /// The caller holds the slot (ks->in_flight).
  void DrainLocked(KeyState* ks) EXCLUSIVE_LOCKS_REQUIRED(mu_);

  BatchStorageWriteFn write_fn_;
  AckFn on_ack_;
  bool coalesce_;

  mutable common::Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>> keys_
      GUARDED_BY(mu_);
  uint64_t submitted_ GUARDED_BY(mu_) = 0;
  uint64_t storage_writes_ GUARDED_BY(mu_) = 0;
  uint64_t batch_calls_ GUARDED_BY(mu_) = 0;
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_WRITE_THROUGH_H_
