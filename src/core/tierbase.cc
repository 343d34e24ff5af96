#include "core/tierbase.h"

#include <limits>
#include <map>

#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/perf_context.h"

namespace tierbase {

namespace {

constexpr char kOpSet = 1;
constexpr char kOpDelete = 0;

std::string EncodeMutation(char op, const Slice& key, const Slice& value) {
  std::string rec;
  rec.push_back(op);
  PutLengthPrefixedSlice(&rec, key);
  PutLengthPrefixedSlice(&rec, value);
  return rec;
}

bool DecodeMutation(const Slice& record, char* op, Slice* key, Slice* value) {
  Slice in = record;
  if (in.empty()) return false;
  *op = in[0];
  in.remove_prefix(1);
  return GetLengthPrefixedSlice(&in, key) &&
         GetLengthPrefixedSlice(&in, value);
}

}  // namespace

const char* CachingPolicyName(CachingPolicy policy) {
  switch (policy) {
    case CachingPolicy::kCacheOnly: return "cache-only";
    case CachingPolicy::kWalFile: return "wal";
    case CachingPolicy::kWalPmem: return "wal-pmem";
    case CachingPolicy::kWriteThrough: return "write-through";
    case CachingPolicy::kWriteBack: return "write-back";
  }
  return "?";
}

TierBase::TierBase(const TierBaseOptions& options, StorageAdapter* storage)
    : options_(options), storage_(storage) {}

TierBase::~TierBase() {
  // Flush write-back state before tearing anything down.
  if (write_back_ != nullptr) write_back_->FlushAll();
}

std::string TierBase::name() const {
  return std::string("tierbase-") + CachingPolicyName(options_.policy);
}

Result<std::unique_ptr<TierBase>> TierBase::Open(
    const TierBaseOptions& options, StorageAdapter* storage) {
  if ((options.policy == CachingPolicy::kWriteThrough ||
       options.policy == CachingPolicy::kWriteBack) &&
      storage == nullptr) {
    return Status::InvalidArgument("tierbase: tiered policy needs storage");
  }
  if (options.policy == CachingPolicy::kWalPmem &&
      options.wal_pmem_device == nullptr) {
    return Status::InvalidArgument("tierbase: WAL-PMem needs a pmem device");
  }
  if ((options.policy == CachingPolicy::kWalFile ||
       options.policy == CachingPolicy::kWalPmem) &&
      options.wal_dir.empty()) {
    return Status::InvalidArgument("tierbase: WAL policy needs wal_dir");
  }
  std::unique_ptr<TierBase> tb(new TierBase(options, storage));
  Status s = tb->Init();
  if (!s.ok()) return s;
  return tb;
}

Status TierBase::Init() {
  if (options_.analytics.enabled) {
    analytics::WorkloadAnalyticsOptions aopts = options_.analytics;
    if (aopts.shards == 0) aopts.shards = options_.cache.shards;
    analytics_ = std::make_unique<analytics::WorkloadAnalytics>(aopts);
    options_.cache.analytics = analytics_.get();
  }
  cache_ = std::make_unique<cache::HashEngine>(options_.cache);

  switch (options_.policy) {
    case CachingPolicy::kCacheOnly:
      break;

    case CachingPolicy::kWalFile:
    case CachingPolicy::kWalPmem: {
      TIERBASE_RETURN_IF_ERROR(env::CreateDirIfMissing(options_.wal_dir));
      if (options_.policy == CachingPolicy::kWalPmem) {
        auto ring = PmemRingBuffer::Open(options_.wal_pmem_device);
        if (!ring.ok()) return ring.status();
        wal_ring_ = std::move(*ring);
      }
      TIERBASE_RETURN_IF_ERROR(RecoverFromWal());
      break;
    }

    case CachingPolicy::kWriteThrough: {
      write_through_ = std::make_unique<PerKeyCoalescer>(
          [this](const std::vector<PerKeyCoalescer::BatchWrite>& ops) {
            std::vector<StorageAdapter::BatchOp> batch;
            batch.reserve(ops.size());
            for (const auto& op : ops) {
              batch.push_back({op.key, op.value, op.is_delete});
            }
            return storage_->WriteBatch(batch);
          },
          /*coalesce=*/true,
          [this](const std::vector<PerKeyCoalescer::BatchWrite>& ops,
                 const Status& s) { InstallAcked(ops, s); });
      fetcher_ = std::make_unique<DeferredFetcher>(storage_);
      break;
    }

    case CachingPolicy::kWriteBack: {
      write_back_ = std::make_unique<WriteBackManager>(
          storage_, options_.write_back);
      fetcher_ = std::make_unique<DeferredFetcher>(storage_);
      // Dirty entries must stay cached until flushed (§4.1.2 reliability).
      cache_->SetEvictionFilter([this](const Slice& key) {
        return !write_back_->IsDirty(key);
      });
      break;
    }
  }
  return Status::OK();
}

Status TierBase::RecoverFromWal() {
  const std::string wal_path = options_.wal_dir + "/tierbase.wal";
  const std::string compact_path = wal_path + ".compact";
  // A leftover .compact is a crash mid-compaction (before the rename):
  // unreferenced and possibly incomplete — discard it.
  TIERBASE_RETURN_IF_ERROR(env::RemoveFile(compact_path));

  // Fold the surviving history straight into its live state (last writer
  // wins; deletes cancel earlier sets): backing file first (older), then
  // the PMem ring (newest).
  std::map<std::string, std::string> live;
  auto fold = [&](const Slice& rec) -> Status {
    char op;
    Slice key, value;
    if (!DecodeMutation(rec, &op, &key, &value)) {
      // The CRC passed but the payload doesn't parse: writer-side damage,
      // not a torn write. Refuse to guess.
      return Status::Corruption("tierbase wal: undecodable record payload");
    }
    ++wal_replayed_records_;
    if (op == kOpDelete) {
      live.erase(key.ToString());
    } else {
      live[key.ToString()] = value.ToString();
    }
    return Status::OK();
  };

  if (env::FileExists(wal_path)) {
    auto reader = lsm::WalReader::Open(wal_path);
    if (!reader.ok()) return reader.status();
    std::string rec;
    bool done = false;
    while (!done) {
      switch ((*reader)->ReadRecord(&rec)) {
        case lsm::WalRead::kOk:
          TIERBASE_RETURN_IF_ERROR(fold(rec));
          break;
        case lsm::WalRead::kEof:
          done = true;
          break;
        case lsm::WalRead::kTruncatedTail:
          // Recoverable: the torn suffix never made it to a sync. The
          // compaction rewrite below drops it for good.
          TB_LOG_WARN(
              "tierbase recovery: %s: torn tail, skipping %llu bytes (%s)",
              wal_path.c_str(),
              static_cast<unsigned long long>((*reader)->skipped_bytes()),
              (*reader)->damage().c_str());
          ++wal_truncated_tails_;
          wal_skipped_bytes_ += (*reader)->skipped_bytes();
          done = true;
          break;
        case lsm::WalRead::kCorruption:
          return Status::Corruption(
              "tierbase wal: " + (*reader)->damage() + " at offset " +
              std::to_string((*reader)->offset()));
      }
    }
  }
  size_t ring_resident = 0;
  if (wal_ring_ != nullptr) {
    // Non-destructive: the ring's durable head only advances once the
    // compacted log below is durable. A destructive drain here would
    // leave these acknowledged records in memory only, and a crash (or a
    // failed compaction write) mid-recovery would lose them for good.
    std::vector<std::string> ring_records;
    TIERBASE_RETURN_IF_ERROR(
        wal_ring_->Peek(std::numeric_limits<size_t>::max(), &ring_records));
    ring_resident = ring_records.size();
    for (const auto& rec : ring_records) {
      TIERBASE_RETURN_IF_ERROR(fold(rec));
    }
  }

  // Compact the log: write the live records to a temp file, sync it, then
  // atomically replace the old log. A crash before the rename keeps the
  // old log (and the ring contents), after it the compacted one — synced
  // data survives either way. (The previous startup-rewrite scheme
  // truncated the log in place and re-appended un-synced, so a crash
  // right after a reboot lost every previously acknowledged record.)
  lsm::WalOptions wal_options;
  wal_options.sync_mode = lsm::WalSyncMode::kInterval;
  wal_options.sync_interval_micros = options_.wal_sync_interval_micros;
  {
    auto compact = lsm::WalWriter::Open(compact_path, wal_options);
    if (!compact.ok()) return compact.status();
    for (const auto& [key, value] : live) {
      TIERBASE_RETURN_IF_ERROR(
          (*compact)->AddRecord(EncodeMutation(kOpSet, key, value)));
    }
    TIERBASE_RETURN_IF_ERROR((*compact)->Sync());
  }
  TIERBASE_RETURN_IF_ERROR(env::RenameFile(compact_path, wal_path));
  // The ring records are now durable in the compacted log; retire them.
  if (wal_ring_ != nullptr && ring_resident > 0) {
    TIERBASE_RETURN_IF_ERROR(wal_ring_->Discard(ring_resident));
  }

  // Populate the cache from the folded live state.
  for (const auto& [key, value] : live) {
    TIERBASE_RETURN_IF_ERROR(cache_->Set(key, value));
  }

  // Continue appending to the compacted log (never O_TRUNC).
  auto wal = lsm::WalWriter::Open(wal_path, wal_options, /*append=*/true);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  return Status::OK();
}

Status TierBase::LogMutation(const Slice& key, const Slice& value,
                             bool is_delete) {
  metrics::ScopedPerfStage wal_stage(metrics::PerfContext::kWalAppend);
  std::string rec =
      EncodeMutation(is_delete ? kOpDelete : kOpSet, key, value);
  if (options_.policy == CachingPolicy::kWalFile) {
    return wal_->AddRecord(rec);
  }
  // WAL-PMem: durable on the ring per record; batch-moved to the file when
  // the ring fills (§4.3 "batch-moved to cloud storage"). Peek + sync +
  // discard: the ring's durable head must not advance before the file
  // copy is synced, or a crash in between loses acknowledged records.
  Status s = wal_ring_->Append(rec);
  if (s.IsBusy()) {
    std::vector<std::string> batch;
    TIERBASE_RETURN_IF_ERROR(wal_ring_->Peek(1024, &batch));
    for (const auto& r : batch) {
      TIERBASE_RETURN_IF_ERROR(wal_->AddRecord(r));
    }
    TIERBASE_RETURN_IF_ERROR(wal_->Sync());
    TIERBASE_RETURN_IF_ERROR(wal_ring_->Discard(batch.size()));
    s = wal_ring_->Append(rec);
  }
  return s;
}

Status TierBase::Set(const Slice& key, const Slice& value) {
  return WriteOne(key, value, 0, /*is_delete=*/false);
}

Status TierBase::SetEx(const Slice& key, const Slice& value,
                       uint64_t ttl_micros) {
  return WriteOne(key, value, ttl_micros, /*is_delete=*/false);
}

Status TierBase::Delete(const Slice& key) {
  return WriteOne(key, Slice(), 0, /*is_delete=*/true);
}

void TierBase::MultiSet(const std::vector<Slice>& keys,
                        const std::vector<Slice>& values,
                        std::vector<Status>* statuses) {
  ApplyWrites(keys, values, 0, /*is_delete=*/false, statuses);
}

Status TierBase::WriteOne(const Slice& key, const Slice& value,
                          uint64_t ttl_micros, bool is_delete) {
  std::vector<Status> statuses;
  ApplyWrites({key}, {value}, ttl_micros, is_delete, &statuses);
  return statuses[0];
}

void TierBase::ApplyWrites(const std::vector<Slice>& keys,
                           const std::vector<Slice>& values,
                           uint64_t ttl_micros, bool is_delete,
                           std::vector<Status>* statuses) {
  statuses->assign(keys.size(), Status::OK());
  if (keys.empty()) return;
  if (!is_delete) stats_sets_.fetch_add(keys.size(), std::memory_order_relaxed);
  Persist(keys, values, ttl_micros, is_delete, statuses);
  // Write-through installed each acknowledged op already, in its key's
  // storage order (InstallAcked).
  if (write_through_ == nullptr) {
    CacheWrite(keys, values, ttl_micros, is_delete, statuses);
  }
}

void TierBase::Persist(const std::vector<Slice>& keys,
                       const std::vector<Slice>& values, uint64_t ttl_micros,
                       bool is_delete, std::vector<Status>* statuses) {
  switch (options_.policy) {
    case CachingPolicy::kCacheOnly:
      break;

    case CachingPolicy::kWalFile:
    case CachingPolicy::kWalPmem:
      // The WAL is a single append stream: log op by op.
      for (size_t i = 0; i < keys.size(); ++i) {
        (*statuses)[i] = LogMutation(keys[i], values[i], is_delete);
      }
      break;

    case CachingPolicy::kWriteThrough: {
      // §4.1.1: the update is held in a temporary buffer (the coalescer's
      // pending slot) and reaches the cache only once storage acknowledges
      // it; concurrent writes to a key coalesce, and a batch goes to
      // storage as one call.
      std::vector<PerKeyCoalescer::BatchWrite> ops(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ops[i] = {keys[i].ToString(), values[i].ToString(), is_delete,
                  ttl_micros};
      }
      metrics::ScopedPerfStage st(metrics::PerfContext::kStorageWrite);
      write_through_->WriteBatch(std::move(ops), statuses);
      break;
    }

    case CachingPolicy::kWriteBack: {
      // §4.1.2: record the update as dirty (a tombstone for a delete),
      // the whole batch under one dirty-set lock; the flusher writes it to
      // storage later. Dirty first: the cache copy is then pinned from the
      // moment it lands, and a miss racing the write finds the dirty value
      // instead of filling a stale one.
      Status s = write_back_->MarkDirtyBatch(keys, values, is_delete);
      if (!s.ok()) statuses->assign(keys.size(), s);
      break;
    }
  }
}

void TierBase::CacheWrite(const std::vector<Slice>& keys,
                          const std::vector<Slice>& values,
                          uint64_t ttl_micros, bool is_delete,
                          std::vector<Status>* statuses) {
  // Under a tiered policy the durable tier holds every op that got here,
  // so the cache outcome is not the op's: a failed cache write (OutOfSpace,
  // e.g. a cache full of pinned dirty entries) leaves no cache copy, and
  // reads find the value in the dirty buffer or storage; deleting an
  // uncached key is no failure either.
  const bool report = !tiered();
  const size_t n = keys.size();
  if (n == 1 || is_delete || ttl_micros != 0) {
    // One-key calls, so the cache's multi-op counters see only batches.
    for (size_t i = 0; i < n; ++i) {
      if (!(*statuses)[i].ok()) continue;
      Status s = is_delete ? cache_->Delete(keys[i])
                           : cache_->SetEx(keys[i], values[i], ttl_micros);
      if (report) (*statuses)[i] = s;
    }
    return;
  }
  std::vector<Slice> ok_keys, ok_values;
  std::vector<uint32_t> ok_index;
  for (size_t i = 0; i < n; ++i) {
    if (!(*statuses)[i].ok()) continue;
    ok_keys.push_back(keys[i]);
    ok_values.push_back(values[i]);
    ok_index.push_back(static_cast<uint32_t>(i));
  }
  std::vector<Status> cache_statuses;
  cache_->MultiSet(ok_keys, ok_values, &cache_statuses);
  for (size_t m = 0; report && m < ok_index.size(); ++m) {
    (*statuses)[ok_index[m]] = cache_statuses[m];
  }
}

void TierBase::InstallAcked(const std::vector<PerKeyCoalescer::BatchWrite>& ops,
                            const Status& s) {
  // Runs under the keys' coalescer slots, so per key in storage order. A
  // failed write invalidates: subsequent reads fetch the authoritative
  // value. The ops of one storage call are a single drained op or come
  // from one Persist call, so they share is_delete and the TTL.
  std::vector<Slice> keys, values;
  for (const auto& op : ops) {
    keys.push_back(op.key);
    values.push_back(op.value);
  }
  std::vector<Status> statuses(ops.size());
  CacheWrite(keys, values, ops[0].ttl_micros, ops[0].is_delete || !s.ok(),
             &statuses);
}

Status TierBase::Get(const Slice& key, std::string* value) {
  stats_gets_.fetch_add(1, std::memory_order_relaxed);

  Status s;
  {
    metrics::ScopedPerfStage probe(metrics::PerfContext::kCacheProbe);
    s = cache_->Get(key, value);
  }
  if (s.ok()) {
    stats_hits_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  if (!s.IsNotFound()) return s;
  std::vector<std::string> values(1);
  std::vector<Status> statuses{s};
  ResolveMisses({key}, {0}, options_.populate_on_miss, &values, &statuses);
  if (statuses[0].ok()) *value = std::move(values[0]);
  return statuses[0];
}

void TierBase::MultiGet(const std::vector<Slice>& keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  const size_t n = keys.size();
  stats_gets_.fetch_add(n, std::memory_order_relaxed);

  {
    metrics::ScopedPerfStage probe(metrics::PerfContext::kCacheProbe);
    cache_->MultiGet(keys, values, statuses);
  }

  uint64_t hits = 0;
  std::vector<uint32_t> misses;
  for (size_t i = 0; i < n; ++i) {
    if ((*statuses)[i].ok()) {
      ++hits;
    } else if ((*statuses)[i].IsNotFound()) {
      misses.push_back(static_cast<uint32_t>(i));
    }
    // Other errors (e.g. wrong type) pass through untouched.
  }
  stats_hits_.fetch_add(hits, std::memory_order_relaxed);
  ResolveMisses(keys, std::move(misses), options_.populate_on_miss, values,
                statuses);
}

void TierBase::ResolveMisses(const std::vector<Slice>& keys,
                             std::vector<uint32_t> misses, bool populate,
                             std::vector<std::string>* values,
                             std::vector<Status>* statuses) {
  // Write-back: the dirty buffer is part of the cache tier — consult it
  // before going to storage, one dirty-set lock for the whole batch. A
  // dirty delete keeps NotFound: the key is gone even if storage still has
  // it; a dirty value may never have had a cache copy.
  if (write_back_ != nullptr && !misses.empty()) {
    std::vector<Slice> miss_keys;
    miss_keys.reserve(misses.size());
    for (uint32_t i : misses) miss_keys.push_back(keys[i]);
    std::vector<bool> dirty_found, dirty_deletes;
    std::vector<std::string> dirty_values;
    write_back_->GetDirtyBatch(miss_keys, &dirty_found, &dirty_values,
                               &dirty_deletes);
    std::vector<uint32_t> still_missing;
    for (size_t m = 0; m < misses.size(); ++m) {
      const uint32_t i = misses[m];
      if (!dirty_found[m]) {
        still_missing.push_back(i);
        continue;
      }
      stats_hits_.fetch_add(1, std::memory_order_relaxed);
      if (!dirty_deletes[m]) {
        (*values)[i] = std::move(dirty_values[m]);
        (*statuses)[i] = Status::OK();
      }
    }
    misses.swap(still_missing);
  }
  if (misses.empty()) return;
  stats_misses_.fetch_add(misses.size(), std::memory_order_relaxed);
  if (!tiered()) return;

  // One deferred fetch for all remaining misses (§4.1.2).
  std::vector<Slice> miss_keys;
  miss_keys.reserve(misses.size());
  for (uint32_t i : misses) miss_keys.push_back(keys[i]);
  std::vector<std::string> fetched;
  std::vector<Status> fetch_statuses;
  {
    metrics::ScopedPerfStage read_stage(metrics::PerfContext::kStorageRead);
    fetcher_->FetchMany(miss_keys, &fetched, &fetch_statuses);
  }

  std::vector<Slice> populate_keys;
  std::vector<Slice> populate_values;
  for (size_t m = 0; m < misses.size(); ++m) {
    const uint32_t i = misses[m];
    (*statuses)[i] = fetch_statuses[m];
    if (fetch_statuses[m].ok()) {
      (*values)[i] = std::move(fetched[m]);
      if (populate) {
        populate_keys.push_back(keys[i]);
        populate_values.push_back(Slice((*values)[i]));
      }
    }
  }
  Populate(populate_keys, populate_values);
}

void TierBase::Populate(const std::vector<Slice>& keys,
                        const std::vector<Slice>& values) {
  // Without dirtying: these values are already durable in storage. Only
  // where the key is still absent — a write that landed while the read was
  // in flight stored a newer value, which the stale fill must not replace.
  // OutOfSpace is fine too: serving from storage still works.
  if (keys.empty()) return;
  std::vector<Status> statuses;
  cache_->MultiSetIfAbsent(keys, values, &statuses);
  for (const Status& s : statuses) {
    if (s.ok()) stats_populates_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TierBase::Exists(const Slice& key) {
  if (cache_->Exists(key)) return true;
  if (!tiered()) return false;
  std::vector<std::string> values(1);
  std::vector<Status> statuses{Status::NotFound("")};
  ResolveMisses({key}, {0}, /*populate=*/false, &values, &statuses);
  return statuses[0].ok();
}

Status TierBase::Cas(const Slice& key, const Slice& expected,
                     const Slice& value, bool allow_create) {
  // Tiered modes: fetch the authoritative value into the cache first
  // (deferred cache-fetching path for update ops on missing keys, §4.1.2).
  if (tiered() && !cache_->Exists(key)) {
    std::vector<std::string> current(1);
    std::vector<Status> statuses{Status::NotFound("")};
    ResolveMisses({key}, {0}, /*populate=*/false, &current, &statuses);
    if (!statuses[0].ok() && !statuses[0].IsNotFound()) return statuses[0];
    // Like a populate: never over a value a concurrent write stored.
    if (statuses[0].ok()) Populate({key}, {Slice(current[0])});
  }

  TIERBASE_RETURN_IF_ERROR(cache_->Cas(key, expected, value, allow_create));

  // Propagate the accepted write through the durable step of a Set.
  std::vector<Status> statuses(1);
  Persist({key}, {value}, 0, /*is_delete=*/false, &statuses);
  return statuses[0];
}

UsageStats TierBase::GetUsage() const {
  UsageStats usage = cache_->GetUsage();
  if (wal_ != nullptr) usage.disk_bytes += wal_->size();
  if (wal_ring_ != nullptr) {
    usage.pmem_bytes +=
        wal_ring_->data_capacity() - wal_ring_->free_bytes();
  }
  return usage;
}

Status TierBase::WaitIdle() {
  if (write_back_ != nullptr) {
    TIERBASE_RETURN_IF_ERROR(write_back_->FlushAll());
  }
  if (wal_ != nullptr) TIERBASE_RETURN_IF_ERROR(wal_->Sync());
  if (storage_ != nullptr) TIERBASE_RETURN_IF_ERROR(storage_->WaitIdle());
  return Status::OK();
}

TierBase::Stats TierBase::GetStats() const {
  Stats s;
  s.gets = stats_gets_.load(std::memory_order_relaxed);
  s.cache_hits = stats_hits_.load(std::memory_order_relaxed);
  s.cache_misses = stats_misses_.load(std::memory_order_relaxed);
  s.sets = stats_sets_.load(std::memory_order_relaxed);
  s.storage_populates = stats_populates_.load(std::memory_order_relaxed);
  s.evictions = cache_->evictions();
  s.expirations = cache_->expirations();
  s.lru_touches = cache_->lru_touches();
  s.multi_shard_locks = cache_->multi_shard_locks();
  s.multi_batches = cache_->multi_batches();
  s.evict_pinned_skips = cache_->evict_pinned_skips();
  UsageStats cache_usage = cache_->GetUsage();
  s.bytes_cached = cache_usage.memory_bytes;
  s.pmem_bytes = cache_usage.pmem_bytes;
  s.keys_cached = cache_usage.keys;
  s.wal_replayed_records = wal_replayed_records_;
  s.wal_truncated_tails = wal_truncated_tails_;
  s.wal_skipped_bytes = wal_skipped_bytes_;
  if (storage_ != nullptr) s.storage_wal = storage_->GetWalRecoveryStats();
  if (write_through_ != nullptr) s.write_through = write_through_->GetStats();
  if (write_back_ != nullptr) {
    s.write_back = write_back_->GetStats();
    s.write_back_dirty = write_back_->dirty_count();
    s.write_back_oldest_dirty_age_us = write_back_->oldest_dirty_age_micros();
    Status fe = write_back_->flush_error();
    if (!fe.ok()) s.flush_error = fe.ToString();
  }
  if (fetcher_ != nullptr) s.deferred_fetch = fetcher_->GetStats();
  return s;
}

}  // namespace tierbase
