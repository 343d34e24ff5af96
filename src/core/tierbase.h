// TierBase: the paper's primary contribution — a tiered key-value store
// that synchronizes data between a fast cache tier (hash engine over
// DRAM/PMem) and a capacity-oriented storage tier (LSM engine behind a
// pluggable adapter), under a configurable caching policy:
//
//   kCacheOnly     pure in-memory store (Redis/Memcached comparison mode)
//   kWalFile       cache + append-only WAL on disk   (Fig 8 "WAL")
//   kWalPmem       cache + WAL on PMem ring buffer   (Fig 8 "WAL-PMem")
//   kWriteThrough  tiered, synchronous storage update (Fig 8 "wt")
//   kWriteBack     tiered, deferred batched storage update (Fig 8 "wb")
//
// Every write (Set, SetEx, Delete, MultiSet) runs one path: the policy's
// durable step, then the cache step for the ops it accepted.
//   cache-only     no durable step
//   WAL, WAL-PMem  append each op to the log
//   write-through  storage first through the per-key coalescer (§4.1.1:
//                  concurrent writes to a key coalesce, a batch is one
//                  storage call); the cache step runs inside it, after the
//                  storage ack and in the key's storage order
//   write-back     mark the ops dirty (§4.1.2); the flusher writes them to
//                  storage later in merged batches, with backpressure
// Cas runs the same durable step after its cache compare-and-set. Every
// read miss (Get, MultiGet, Cas, Exists) runs one path too: the write-back
// dirty buffer, then one deferred cache-fetch (§4.1.2), then a populate
// that never replaces a value a concurrent write stored (Exists fills
// nothing).
//
// The dual-replica reliability setup of §6.4 lives a layer up: a networked
// replica node pulls this instance's oplog over REPLICAOF/REPLPULL
// (src/cluster_net/node_state.h). Value compression (§4.2) and PMem
// placement (§4.3) are configured through the embedded cache engine
// options.

#ifndef TIERBASE_CORE_TIERBASE_H_
#define TIERBASE_CORE_TIERBASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "cache/hash_engine.h"
#include "core/deferred_fetch.h"
#include "core/options.h"
#include "core/storage_adapter.h"
#include "core/write_back.h"
#include "core/write_through.h"
#include "lsm/wal.h"
#include "pmem/ring_buffer.h"

namespace tierbase {

class TierBase : public KvEngine {
 public:
  /// `storage` is required for tiered policies (kWriteThrough/kWriteBack)
  /// and ignored otherwise; not owned.
  static Result<std::unique_ptr<TierBase>> Open(const TierBaseOptions& options,
                                                StorageAdapter* storage);
  ~TierBase() override;

  std::string name() const override;

  // --- KvEngine. ---
  Status Set(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Delete(const Slice& key) override;
  /// Batched reads: one cache MultiGet, then (tiered policies) one dirty-
  /// buffer pass and one batched storage MultiRead for the misses, with a
  /// single batched cache populate.
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  /// Batched writes under every caching policy: the cache step is one
  /// per-shard-batched MultiSet; write-through coalesces the batch into one
  /// storage call; write-back marks the whole batch dirty under one
  /// dirty-set lock.
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override;
  UsageStats GetUsage() const override;
  Status WaitIdle() override;

  // --- Extensions. ---
  Status SetEx(const Slice& key, const Slice& value, uint64_t ttl_micros);
  /// Compare-and-set; in tiered modes a cache miss triggers a (deferred)
  /// fetch before comparing, per §4.1.2's update-on-missing-key path.
  Status Cas(const Slice& key, const Slice& expected, const Slice& value,
             bool allow_create = false);
  /// Whether the key holds a value: the cache, then (write-back) the dirty
  /// buffer, then storage. Fills nothing into the cache.
  bool Exists(const Slice& key);

  /// The cache-tier engine (rich data-type ops are reachable here; they are
  /// cache-tier-only in this reproduction).
  cache::HashEngine* cache() { return cache_.get(); }
  StorageAdapter* storage() { return storage_; }
  /// The workload observatory (live MRC / hot keys / keyspace shape), or
  /// null when options.analytics.enabled is false.
  analytics::WorkloadAnalytics* analytics() { return analytics_.get(); }
  const analytics::WorkloadAnalytics* analytics() const {
    return analytics_.get();
  }

  /// Aggregated snapshot across the whole instance: the engine's own op
  /// counters plus the cache tier's eviction/recency/batching gauges and
  /// footprint, so one call yields everything the server's INFO reply
  /// (and any external monitoring) needs.
  struct Stats {
    uint64_t gets = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;     // Misses that consulted storage.
    uint64_t sets = 0;
    uint64_t storage_populates = 0;
    // Cache-tier aggregates (from the embedded HashEngine).
    uint64_t evictions = 0;
    uint64_t expirations = 0;
    uint64_t lru_touches = 0;
    uint64_t multi_shard_locks = 0;  // Shard locks taken by batch ops.
    uint64_t multi_batches = 0;      // MultiGet/MultiSet calls served.
    uint64_t evict_pinned_skips = 0;  // Pinned (dirty) entries eviction
                                      // walked past.
    uint64_t bytes_cached = 0;       // DRAM charged to cached entries.
    uint64_t pmem_bytes = 0;         // Simulated-PMem value bytes.
    uint64_t keys_cached = 0;
    // Persistence / crash-recovery audit trail.
    uint64_t wal_replayed_records = 0;  // Applied by the last recovery.
    uint64_t wal_truncated_tails = 0;   // Torn tails found (and cut).
    uint64_t wal_skipped_bytes = 0;     // Torn-suffix bytes dropped.
    // Same, for the storage tier's own WAL (tiered policies: the only WAL
    // in play — TierBase's counters above are for the wal/wal-pmem modes).
    StorageAdapter::WalRecoveryStats storage_wal;
    uint64_t write_back_dirty = 0;      // Unflushed dirty entries right now.
    uint64_t write_back_oldest_dirty_age_us = 0;  // Age of the oldest one.
    std::string flush_error;            // Last write-back flush error; empty
                                        // when healthy (cleared on success).
    PerKeyCoalescer::Stats write_through;
    WriteBackManager::Stats write_back;
    DeferredFetcher::Stats deferred_fetch;
  };
  Stats GetStats() const;

  double hit_ratio() const {
    uint64_t h = stats_hits_.load(), m = stats_misses_.load();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }

 private:
  TierBase(const TierBaseOptions& options, StorageAdapter* storage);

  Status Init();
  Status RecoverFromWal();
  Status LogMutation(const Slice& key, const Slice& value, bool is_delete);
  Status WriteOne(const Slice& key, const Slice& value, uint64_t ttl_micros,
                  bool is_delete);
  /// The one write path: sets keys[i] = values[i] (with ttl_micros) or,
  /// when is_delete, deletes keys[i]; per-op outcomes land in statuses[i].
  void ApplyWrites(const std::vector<Slice>& keys,
                   const std::vector<Slice>& values, uint64_t ttl_micros,
                   bool is_delete, std::vector<Status>* statuses);
  /// The policy's durable step; marks the ops it fails.
  void Persist(const std::vector<Slice>& keys,
               const std::vector<Slice>& values, uint64_t ttl_micros,
               bool is_delete, std::vector<Status>* statuses);
  /// The cache step, for the ops whose status is still OK.
  void CacheWrite(const std::vector<Slice>& keys,
                  const std::vector<Slice>& values, uint64_t ttl_micros,
                  bool is_delete, std::vector<Status>* statuses);
  /// Write-through's cache step: the coalescer's ack of a storage call.
  void InstallAcked(const std::vector<PerKeyCoalescer::BatchWrite>& ops,
                    const Status& s);
  /// The one miss path: resolves keys[i] for each i in `misses` (whose
  /// statuses are NotFound) from the dirty buffer, then one deferred fetch,
  /// then (if `populate`) fills the cache with what storage returned.
  void ResolveMisses(const std::vector<Slice>& keys,
                     std::vector<uint32_t> misses, bool populate,
                     std::vector<std::string>* values,
                     std::vector<Status>* statuses);
  /// Fills the cache where the key is still absent.
  void Populate(const std::vector<Slice>& keys,
                const std::vector<Slice>& values);
  bool tiered() const {
    return options_.policy == CachingPolicy::kWriteThrough ||
           options_.policy == CachingPolicy::kWriteBack;
  }

  TierBaseOptions options_;
  StorageAdapter* storage_;

  // Created before cache_ (the engine records into it) and therefore
  // destroyed after it.
  std::unique_ptr<analytics::WorkloadAnalytics> analytics_;
  std::unique_ptr<cache::HashEngine> cache_;
  std::unique_ptr<PerKeyCoalescer> write_through_;
  std::unique_ptr<WriteBackManager> write_back_;
  std::unique_ptr<DeferredFetcher> fetcher_;

  // WAL persistence modes.
  std::unique_ptr<lsm::WalWriter> wal_;
  std::unique_ptr<PmemRingBuffer> wal_ring_;

  // Recovery counters: written once during Init (single-threaded), read
  // by GetStats.
  uint64_t wal_replayed_records_ = 0;
  uint64_t wal_truncated_tails_ = 0;
  uint64_t wal_skipped_bytes_ = 0;

  std::atomic<uint64_t> stats_gets_{0};
  std::atomic<uint64_t> stats_hits_{0};
  std::atomic<uint64_t> stats_misses_{0};
  std::atomic<uint64_t> stats_sets_{0};
  std::atomic<uint64_t> stats_populates_{0};
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_TIERBASE_H_
