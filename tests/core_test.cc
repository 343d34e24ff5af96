// Tests for the TierBase core: caching policies (cache-only, WAL, WAL-PMem,
// write-through, write-back), the write-through coalescer, the write-back
// manager (merging, backpressure, flush), deferred fetching, and crash
// recovery of the cache tier.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "core/deferred_fetch.h"
#include "core/options.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "core/write_back.h"
#include "core/write_through.h"

namespace tierbase {
namespace {

class TierBaseTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_core_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }
  std::string dir_;
};

// Mock storage that records the keys of every WriteBatch, in call order.
class RecordingStorage : public MockStorageAdapter {
 public:
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    {
      std::lock_guard<std::mutex> lock(batches_mu_);
      std::vector<std::string> keys;
      for (const auto& op : ops) keys.push_back(op.key);
      batches_.push_back(std::move(keys));
    }
    return MockStorageAdapter::WriteBatch(ops);
  }
  std::vector<std::vector<std::string>> batches() {
    std::lock_guard<std::mutex> lock(batches_mu_);
    return batches_;
  }

 private:
  std::mutex batches_mu_;
  std::vector<std::vector<std::string>> batches_;
};

// --- Cache-only mode. ---

TEST_F(TierBaseTest, CacheOnlyBasicOps) {
  TierBaseOptions options;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE((*db)->Delete("k").ok());
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, TieredPolicyRequiresStorage) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, nullptr);
  EXPECT_FALSE(db.ok());
}

TEST_F(TierBaseTest, SetExExpires) {
  TierBaseOptions options;
  ManualClock clock;
  options.cache.clock = &clock;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->SetEx("k", "v", 1000).ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  clock.Advance(1500);
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, CasInCacheOnlyMode) {
  TierBaseOptions options;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "a").ok());
  ASSERT_TRUE((*db)->Cas("k", "a", "b").ok());
  EXPECT_TRUE((*db)->Cas("k", "a", "c").IsAborted());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "b");
}

// --- WAL persistence (Fig 8 "WAL"). ---

TEST_F(TierBaseTest, WalFileRecoversAfterRestart) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Set("key" + std::to_string(i), "val" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*db)->Delete("key7").ok());
    ASSERT_TRUE((*db)->WaitIdle().ok());
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("key42", &value).ok());
  EXPECT_EQ(value, "val42");
  EXPECT_TRUE((*db)->Get("key7", &value).IsNotFound());
}

TEST_F(TierBaseTest, WalPmemRecoversViaBackingFile) {
  PmemOptions pmem_options;
  pmem_options.capacity = 4 << 20;
  pmem_options.inject_latency = false;
  pmem_options.backing_file = dir_ + "/pmem.img";

  TierBaseOptions options;
  options.policy = CachingPolicy::kWalPmem;
  options.wal_dir = dir_;
  {
    auto device = PmemDevice::Create(pmem_options);
    ASSERT_TRUE(device.ok());
    options.wal_pmem_device = device->get();
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*db)->Set("pk" + std::to_string(i), "pv").ok());
    }
    ASSERT_TRUE((*db)->WaitIdle().ok());
  }
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  options.wal_pmem_device = device->get();
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("pk99", &value).ok());
  EXPECT_EQ(value, "pv");
}

// --- Write-through (paper §4.1.1). ---

TEST_F(TierBaseTest, WriteThroughReachesStorageSynchronously) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  // The Set already returned: storage must hold the value.
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(TierBaseTest, WriteThroughMissPopulatesCache) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("cold", "from-storage").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("cold", &value).ok());
  EXPECT_EQ(value, "from-storage");
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.storage_populates, 1u);
  // Second read is a cache hit: storage not consulted again.
  uint64_t reads_before = storage.counters().reads;
  ASSERT_TRUE((*db)->Get("cold", &value).ok());
  EXPECT_EQ(storage.counters().reads, reads_before);
}

TEST_F(TierBaseTest, WriteThroughStorageFailureInvalidatesCache) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 2;  // Second write fails.
  MockStorageAdapter storage(mock_options);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v1").ok());
  Status s = (*db)->Set("k", "v2");  // Storage write fails.
  EXPECT_FALSE(s.ok());
  // Consistency: the cache must not serve the unpersisted v2. The entry is
  // invalidated; the next read refetches v1 from storage.
  std::string value;
  Status read = (*db)->Get("k", &value);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(TierBaseTest, WriteThroughDeletePropagates) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  ASSERT_TRUE((*db)->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(storage.Read("k", &value).IsNotFound());
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, WriteThroughCasFetchesMissingKey) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "stored").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  // Key is not cached; CAS must fetch it before comparing.
  ASSERT_TRUE((*db)->Cas("k", "stored", "updated").ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "updated");
}

// --- PerKeyCoalescer unit behaviour. ---

TEST(PerKeyCoalescerTest, AllWritersObserveSuccess) {
  std::atomic<int> storage_writes{0};
  PerKeyCoalescer coalescer(
      [&](const std::vector<PerKeyCoalescer::BatchWrite>&) {
        storage_writes.fetch_add(1);
        return Status::OK();
      },
      /*coalesce=*/true);
  ASSERT_TRUE(coalescer.Write("k", "v", false).ok());
  EXPECT_EQ(storage_writes.load(), 1);
  auto stats = coalescer.GetStats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.storage_writes, 1u);
}

TEST(PerKeyCoalescerTest, ConcurrentWritesSameKeyCoalesce) {
  std::atomic<int> storage_writes{0};
  PerKeyCoalescer coalescer(
      [&](const std::vector<PerKeyCoalescer::BatchWrite>&) {
        storage_writes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Status::OK();
      },
      /*coalesce=*/true);
  constexpr int kThreads = 8, kWritesPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        ASSERT_TRUE(
            coalescer.Write("hotkey", std::to_string(t * 100 + i), false)
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = coalescer.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads) * kWritesPerThread);
  // The whole point: far fewer storage writes than submissions.
  EXPECT_LT(stats.storage_writes, stats.submitted);
}

TEST(PerKeyCoalescerTest, ErrorsPropagateToWaiters) {
  PerKeyCoalescer coalescer(
      [&](const std::vector<PerKeyCoalescer::BatchWrite>&) {
        return Status::IOError("storage down");
      },
      true);
  Status s = coalescer.Write("k", "v", false);
  EXPECT_TRUE(s.IsIOError());
}

TEST(PerKeyCoalescerTest, DisabledCoalescingWritesEveryUpdate) {
  std::atomic<int> storage_writes{0};
  PerKeyCoalescer coalescer(
      [&](const std::vector<PerKeyCoalescer::BatchWrite>&) {
        storage_writes.fetch_add(1);
        return Status::OK();
      },
      /*coalesce=*/false);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(coalescer.Write("k", std::to_string(i), false).ok());
  }
  EXPECT_EQ(storage_writes.load(), 20);
}

// --- Write-back (paper §4.1.2). ---

TEST_F(TierBaseTest, WriteBackDefersAndFlushes) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 5'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  // Deferred write: will reach storage once flushed.
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(TierBaseTest, WriteBackReadsSeeUnflushedWrites) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;  // Don't auto-flush.
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "dirty-value").ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "dirty-value");
}

// Regression: FlushAll once only nudged flush_cv_, whose predicate ignored
// the request — with a long interval and a huge threshold the flusher went
// straight back to sleep and FlushAll (and thus WaitIdle and the
// destructor) spun forever.
TEST_F(TierBaseTest, WriteBackWaitIdleFlushesDespiteIdleFlusher) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;  // Never on its own.
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "must-flush").ok());
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "must-flush");
}

TEST_F(TierBaseTest, WriteBackMergesUpdatesToSameKey) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 100'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Set("hot", "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("hot", &value).ok());
  EXPECT_EQ(value, "v99");  // Latest wins.
  auto stats = (*db)->GetStats();
  EXPECT_GT(stats.write_back.merged_updates, 0u);
  // Storage saw far fewer individual writes than 100.
  EXPECT_LT(storage.counters().writes, 100u);
}

TEST_F(TierBaseTest, WriteBackUpdateOnMissingKeyFetchesFirst) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "original").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  // CAS on a key not in cache: §4.1.2's deferred cache-fetch path.
  ASSERT_TRUE((*db)->Cas("k", "original", "updated").ok());
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "updated");
}

TEST_F(TierBaseTest, WriteBackFlushAllOnShutdownNoDataLoss) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  {
    auto db = TierBase::Open(options, &storage);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)->Set("key" + std::to_string(i), "v").ok());
    }
    // Destructor must flush dirty data.
  }
  EXPECT_EQ(storage.size(), 50u);
}

TEST(WriteBackManagerTest, BackpressureBlocksThenRecovers) {
  MockStorageAdapter storage;
  WriteBackOptions options;
  options.max_dirty = 16;
  options.flush_threshold = 8;
  options.flush_interval_micros = 1'000;
  options.max_batch = 8;
  WriteBackManager manager(&storage, options);
  // Push far beyond max_dirty; backpressure must engage but all writes land.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        manager.MarkDirty("key" + std::to_string(i), "v", false).ok());
  }
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(storage.size(), 500u);
  auto stats = manager.GetStats();
  EXPECT_GT(stats.backpressure_waits, 0u);
  EXPECT_GT(stats.flush_batches, 0u);
}

TEST(WriteBackManagerTest, DirtyStateVisible) {
  MockStorageAdapter storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty("k", "v", false).ok());
  EXPECT_TRUE(manager.IsDirty("k"));
  std::string value;
  bool is_delete = true;
  EXPECT_TRUE(manager.GetDirty("k", &value, &is_delete));
  EXPECT_EQ(value, "v");
  EXPECT_FALSE(is_delete);
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_FALSE(manager.IsDirty("k"));
  EXPECT_EQ(manager.dirty_count(), 0u);
}

TEST(WriteBackManagerTest, DeletesFlushAsTombstones) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  WriteBackOptions options;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty("k", "", true).ok());
  ASSERT_TRUE(manager.FlushAll().ok());
  std::string value;
  EXPECT_TRUE(storage.Read("k", &value).IsNotFound());
}

TEST(WriteBackManagerTest, BatchesReduceRemoteCalls) {
  MockStorageAdapter storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  options.max_batch = 64;
  WriteBackManager manager(&storage, options);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(manager.MarkDirty("key" + std::to_string(i), "v", false).ok());
  }
  ASSERT_TRUE(manager.FlushAll().ok());
  // 256 ops in >= 4 batches but far fewer than 256 remote calls.
  EXPECT_LE(storage.counters().batch_calls, 16u);
  EXPECT_EQ(storage.size(), 256u);
}

// Regression (crash-safety audit): flush_error_ used to latch forever —
// the flusher thread exited on the first storage failure and every later
// MarkDirty bounced. One transient failure must now be retried with
// backoff, the manager must drain on its own, and the error must clear.
TEST(WriteBackManagerTest, TransientFlushFailureRetriesAndClears) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_first = 1;  // First storage batch fails, then heals.
  MockStorageAdapter storage(mock_options);
  WriteBackOptions options;
  options.flush_threshold = 1;  // Flush eagerly.
  options.flush_interval_micros = 1'000;
  options.retry_backoff_micros = 500;
  options.retry_backoff_max_micros = 2'000;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty("k", "v", false).ok());

  // The manager must drain without any outside nudge beyond FlushAll.
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(manager.dirty_count(), 0u);
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");

  auto stats = manager.GetStats();
  EXPECT_GE(stats.flush_failures, 1u);
  EXPECT_GE(stats.flush_retries, 1u);
  EXPECT_TRUE(manager.flush_error().ok());  // Cleared on success.

  // Writes flow again after the error cleared.
  ASSERT_TRUE(manager.MarkDirty("k2", "v2", false).ok());
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(storage.size(), 2u);
}

// A storage tier that stays down must not hang FlushAll or the destructor:
// after max_flush_failures consecutive failures both give up and surface
// the error, leaving the entries dirty.
TEST(WriteBackManagerTest, PersistentFlushFailureSurfacesBounded) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 1;  // Every write fails.
  MockStorageAdapter storage(mock_options);
  WriteBackOptions options;
  options.flush_threshold = 1;
  options.flush_interval_micros = 500;
  options.retry_backoff_micros = 100;
  options.retry_backoff_max_micros = 500;
  options.max_flush_failures = 4;
  {
    WriteBackManager manager(&storage, options);
    ASSERT_TRUE(manager.MarkDirty("k", "v", false).ok());
    Status s = manager.FlushAll();
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(manager.dirty_count(), 1u);  // Entry stays dirty, not lost.
    EXPECT_FALSE(manager.flush_error().ok());
    // Destructor must terminate despite the un-flushable entry.
  }
  EXPECT_EQ(storage.size(), 0u);
}

// Strict oldest-first flushing: the first batch is exactly the first
// max_batch keys dirtied. (Taking the first entries of the hash map in
// iteration order flushed the newest keys first.)
TEST(WriteBackManagerTest, FlushesOldestFirst) {
  RecordingStorage storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;  // Only FlushAll flushes.
  options.flush_threshold = 1 << 30;
  WriteBackManager manager(&storage, options);
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(manager.MarkDirty("k" + std::to_string(i), "v", false).ok());
  }
  ASSERT_TRUE(manager.FlushAll().ok());
  auto batches = storage.batches();
  ASSERT_EQ(batches.size(), 1024u / options.max_batch);
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_EQ(batches[b].size(), options.max_batch);
    for (size_t i = 0; i < options.max_batch; ++i) {
      ASSERT_EQ(batches[b][i], "k" + std::to_string(b * options.max_batch + i))
          << "batch " << b << " slot " << i;
    }
  }
}

// Re-dirtying a pending key updates it in place: it keeps the place of its
// first dirtying, so a stream of newer keys never pushes it back, and all
// its updates merge into one storage op carrying the latest value.
TEST(WriteBackManagerTest, RedirtiedKeyKeepsItsPlace) {
  RecordingStorage storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty("old", "v0", false).ok());
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(manager.MarkDirty("k" + std::to_string(i), "v", false).ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(
          manager.MarkDirty("old", "v" + std::to_string(i), false).ok());
    }
  }
  ASSERT_TRUE(manager.FlushAll().ok());
  auto batches = storage.batches();
  ASSERT_FALSE(batches.empty());
  EXPECT_EQ(batches[0][0], "old");
  EXPECT_EQ(batches[0][1], "k0");
  size_t old_ops = 0;
  for (const auto& batch : batches) {
    old_ops += static_cast<size_t>(std::count(batch.begin(), batch.end(), "old"));
  }
  EXPECT_EQ(old_ops, 1u);
  EXPECT_EQ(manager.GetStats().merged_updates, 10u);
  std::string value;
  ASSERT_TRUE(storage.Read("old", &value).ok());
  EXPECT_EQ(value, "v999");
}

TEST(WriteBackManagerTest, OldestDirtyAgeComesFromFirstDirtying) {
  MockStorageAdapter storage;
  ManualClock clock(1'000);
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  WriteBackManager manager(&storage, options, &clock);
  EXPECT_EQ(manager.oldest_dirty_age_micros(), 0u);
  ASSERT_TRUE(manager.MarkDirty("a", "v", false).ok());
  clock.Advance(500);
  ASSERT_TRUE(manager.MarkDirty("b", "v", false).ok());
  clock.Advance(250);
  ASSERT_TRUE(manager.MarkDirty("a", "v2", false).ok());  // Merges.
  EXPECT_EQ(manager.oldest_dirty_age_micros(), 750u);
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(manager.oldest_dirty_age_micros(), 0u);
}

// --- DeferredFetcher. ---

TEST(DeferredFetcherTest, FetchesFromStorage) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  DeferredFetcher fetcher(&storage);
  std::string value;
  ASSERT_TRUE(fetcher.Fetch("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(fetcher.Fetch("missing", &value).IsNotFound());
  // Fetch is a one-key FetchMany: one MultiRead per lone fetch.
  EXPECT_EQ(storage.counters().batch_calls, 2u);
  EXPECT_EQ(storage.counters().reads, 2u);
}

// No forming window: batching comes from misses that arrive while a
// leader's MultiRead is in flight (500 us here) and join its drain loop.
TEST(DeferredFetcherTest, ConcurrentMissesShareBatches) {
  MockStorageAdapter::Options mock_options;
  mock_options.latency_micros = 500;  // Make batching worthwhile & likely.
  MockStorageAdapter storage(mock_options);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(storage.Write("key" + std::to_string(i), "v").ok());
  }
  DeferredFetcher fetcher(&storage);

  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        std::string value;
        if (fetcher.Fetch("key" + std::to_string(t * 4 + i), &value).ok()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 64);
  auto stats = fetcher.GetStats();
  EXPECT_EQ(stats.fetches, 64u);
  // Batching happened: fewer storage calls than fetches.
  EXPECT_LT(stats.batch_calls, 64u);
}

// A lone miss reads storage once, straight away: no window, no Read
// beside the MultiRead.
TEST_F(TierBaseTest, LoneGetMissMakesOneStorageCall) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(storage.counters().batch_calls, 1u);
  EXPECT_EQ(storage.counters().reads, 1u);
  auto fetch = (*db)->GetStats().deferred_fetch;
  EXPECT_EQ(fetch.fetches, 1u);
  EXPECT_EQ(fetch.batch_calls, 1u);
  // The fill makes the next read a hit.
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(storage.counters().reads, 1u);
}

// --- Hit-ratio accounting. ---

TEST_F(TierBaseTest, HitRatioTracksCacheEffectiveness) {
  MockStorageAdapter storage;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(storage.Write("key" + std::to_string(i), "v").ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  // First pass: all misses (populate). Second pass: all hits.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_NEAR((*db)->hit_ratio(), 0.5, 0.01);
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.gets, 200u);
  EXPECT_EQ(stats.cache_hits, 100u);
  EXPECT_EQ(stats.cache_misses, 100u);
}

TEST_F(TierBaseTest, PopulateOnMissDisabled) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  options.populate_on_miss = false;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.cache_misses, 2u);  // Never cached.
  EXPECT_EQ(stats.storage_populates, 0u);
}

// --- Cache budget integration: tiered mode evicts but storage retains. ---

TEST_F(TierBaseTest, EvictionIsSafeUnderWriteThrough) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  options.cache.memory_budget = 32 * 1024;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*db)->Set("key" + std::to_string(i), std::string(300, 'e')).ok());
  }
  EXPECT_GT((*db)->cache()->evictions(), 0u);
  // Every key remains readable (through storage on cache miss).
  std::string value;
  for (int i = 0; i < 500; i += 50) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value.size(), 300u);
  }
}

TEST_F(TierBaseTest, EvictionIsSafeUnderWriteBack) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.memory_budget = 32 * 1024;
  options.write_back.flush_interval_micros = 2'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*db)->Set("key" + std::to_string(i), std::string(300, 'w')).ok());
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  // No data loss despite eviction pressure: dirty entries were pinned
  // until flushed, and all keys are in storage.
  std::string value;
  for (int i = 0; i < 500; i += 25) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok()) << i;
  }
  EXPECT_EQ(storage.size(), 500u);
}

}  // namespace
}  // namespace tierbase

// --- RemoteStorageAdapter: the disaggregated-RPC cost model. ---

namespace tierbase {
namespace {

TEST(RemoteStorageAdapterTest, ForwardsAndCounts) {
  MockStorageAdapter inner;
  RemoteStorageAdapter remote(&inner, /*rtt_micros=*/0);
  ASSERT_TRUE(remote.Write("k", "v").ok());
  std::string value;
  ASSERT_TRUE(remote.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
  std::vector<StorageAdapter::BatchOp> batch = {{"a", "1", false},
                                                {"b", "2", false}};
  ASSERT_TRUE(remote.WriteBatch(batch).ok());
  auto counters = remote.counters();
  EXPECT_EQ(counters.writes, 3u);       // 1 single + 2 batched.
  EXPECT_EQ(counters.batch_calls, 1u);  // One round trip for the batch.
  ASSERT_TRUE(remote.Delete("k").ok());
  EXPECT_TRUE(remote.Read("k", &value).IsNotFound());
}

TEST(RemoteStorageAdapterTest, BatchPaysOneRoundTrip) {
  MockStorageAdapter inner;
  RemoteStorageAdapter remote(&inner, /*rtt_micros=*/300);
  // 64 individual writes vs one 64-op batch: the batch must be close to
  // 64x cheaper in wall time.
  std::vector<StorageAdapter::BatchOp> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({"b" + std::to_string(i), "v", false});
  }
  Stopwatch batch_timer;
  ASSERT_TRUE(remote.WriteBatch(batch).ok());
  double batch_secs = batch_timer.ElapsedSeconds();

  Stopwatch single_timer;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(remote.Write("s" + std::to_string(i), "v").ok());
  }
  double single_secs = single_timer.ElapsedSeconds();
  EXPECT_GT(single_secs, batch_secs * 10);
}

TEST(RemoteStorageAdapterTest, MultiReadSharesRoundTrip) {
  MockStorageAdapter inner;
  ASSERT_TRUE(inner.Write("a", "1").ok());
  ASSERT_TRUE(inner.Write("b", "2").ok());
  RemoteStorageAdapter remote(&inner, 0);
  std::vector<std::string> values;
  std::vector<bool> found;
  ASSERT_TRUE(remote.MultiRead({"a", "b", "missing"}, &values, &found).ok());
  ASSERT_EQ(found.size(), 3u);
  EXPECT_TRUE(found[0]);
  EXPECT_TRUE(found[1]);
  EXPECT_FALSE(found[2]);
  EXPECT_EQ(values[1], "2");
}

// --- Differential property test across every caching policy. ---

struct PolicyParam {
  CachingPolicy policy;
  const char* name;
};

class PolicyDifferentialTest : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicyDifferentialTest, MatchesModelUnderRandomOps) {
  const CachingPolicy policy = GetParam().policy;
  std::string dir = env::MakeTempDir("tb_policy_diff");

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());

  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = policy;
  options.wal_dir = dir;
  options.wal_pmem_device = device->get();
  options.write_back.flush_interval_micros = 5'000;

  bool tiered = policy == CachingPolicy::kWriteThrough ||
                policy == CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, tiered ? &storage : nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Random rng(2024);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(300));
    std::string value = "v" + std::to_string(i);
    auto it = model.find(key);
    int action = static_cast<int>(rng.Uniform(12));
    if (action < 5) {
      ASSERT_TRUE((*db)->Set(key, value).ok());
      model[key] = value;
    } else if (action == 5) {
      // A TTL far beyond the run: the key must behave like a plain Set.
      ASSERT_TRUE((*db)->SetEx(key, value, 3'600'000'000ull).ok());
      model[key] = value;
    } else if (action == 6) {
      if (it == model.end()) {
        ASSERT_TRUE((*db)->Cas(key, "", value, /*allow_create=*/true).ok())
            << GetParam().name << " " << key;
        model[key] = value;
      } else if (rng.Uniform(2) == 0) {
        ASSERT_TRUE((*db)->Cas(key, it->second, value).ok())
            << GetParam().name << " " << key;
        it->second = value;
      } else {
        ASSERT_TRUE((*db)->Cas(key, "stale", value).IsAborted())
            << GetParam().name << " " << key;
      }
    } else if (action < 9) {
      (*db)->Delete(key);
      model.erase(key);
    } else {
      Status s = (*db)->Get(key, &value);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << GetParam().name << " " << key;
      } else {
        ASSERT_TRUE(s.ok()) << GetParam().name << " " << key;
        ASSERT_EQ(value, it->second) << GetParam().name << " " << key;
      }
    }
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE((*db)->Get(key, &value).ok()) << GetParam().name << " " << key;
    ASSERT_EQ(value, expected) << GetParam().name << " " << key;
  }
  if (tiered) {
    // The storage tier holds exactly the model once idle.
    EXPECT_EQ(storage.size(), model.size()) << GetParam().name;
    for (const auto& [key, expected] : model) {
      std::string value;
      ASSERT_TRUE(storage.Read(key, &value).ok())
          << GetParam().name << " " << key;
      ASSERT_EQ(value, expected) << GetParam().name << " " << key;
    }
  }
  db.value().reset();
  env::RemoveDirRecursive(dir);
}

// MultiGet/MultiSet must agree with the single-op model under every
// caching policy, including mixed hit/miss/dirty batches.
TEST_P(PolicyDifferentialTest, MultiOpsMatchModel) {
  const CachingPolicy policy = GetParam().policy;
  std::string dir = env::MakeTempDir("tb_policy_multi");

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());

  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = policy;
  options.cache.shards = 4;
  options.wal_dir = dir;
  options.wal_pmem_device = device->get();
  options.write_back.flush_interval_micros = 5'000;

  bool tiered = policy == CachingPolicy::kWriteThrough ||
                policy == CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, tiered ? &storage : nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Random rng(77);
  std::map<std::string, std::string> model;
  for (int round = 0; round < 60; ++round) {
    std::vector<std::string> key_strs, value_strs;
    for (int i = 0; i < 16; ++i) {
      key_strs.push_back("key" + std::to_string(rng.Uniform(200)));
      value_strs.push_back("v" + std::to_string(round) + "-" +
                           std::to_string(i));
    }
    std::vector<Slice> keys(key_strs.begin(), key_strs.end());
    if (round % 3 != 0) {
      std::vector<Slice> values(value_strs.begin(), value_strs.end());
      std::vector<Status> statuses;
      (*db)->MultiSet(keys, values, &statuses);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(statuses[i].ok())
            << GetParam().name << " " << key_strs[i] << " "
            << statuses[i].ToString();
        model[key_strs[i]] = value_strs[i];
      }
      // Exercise single-op Delete between batches.
      if (round % 6 == 1 && !model.empty()) {
        std::string victim = model.begin()->first;
        (*db)->Delete(victim);
        model.erase(victim);
      }
    } else {
      key_strs.push_back("never-written-" + std::to_string(round));
      keys.assign(key_strs.begin(), key_strs.end());
      std::vector<std::string> out;
      std::vector<Status> statuses;
      (*db)->MultiGet(keys, &out, &statuses);
      for (size_t i = 0; i < keys.size(); ++i) {
        auto it = model.find(key_strs[i]);
        if (it == model.end()) {
          ASSERT_TRUE(statuses[i].IsNotFound())
              << GetParam().name << " " << key_strs[i] << " "
              << statuses[i].ToString();
        } else {
          ASSERT_TRUE(statuses[i].ok())
              << GetParam().name << " " << key_strs[i] << " "
              << statuses[i].ToString();
          ASSERT_EQ(out[i], it->second) << GetParam().name;
        }
      }
    }
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE((*db)->Get(key, &value).ok()) << GetParam().name << " " << key;
    ASSERT_EQ(value, expected) << GetParam().name << " " << key;
  }
  db.value().reset();
  env::RemoveDirRecursive(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDifferentialTest,
    ::testing::Values(PolicyParam{CachingPolicy::kCacheOnly, "cache_only"},
                      PolicyParam{CachingPolicy::kWalFile, "wal_file"},
                      PolicyParam{CachingPolicy::kWalPmem, "wal_pmem"},
                      PolicyParam{CachingPolicy::kWriteThrough,
                                  "write_through"},
                      PolicyParam{CachingPolicy::kWriteBack, "write_back"}),
    [](const ::testing::TestParamInfo<PolicyParam>& info) {
      return std::string(info.param.name);
    });

// --- Batched-path plumbing details. ---

TEST(TierBaseMultiOpsTest, WriteThroughMultiSetCoalescesToOneStorageCall) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 32; ++i) {
    key_strs.push_back("wt" + std::to_string(i));
    value_strs.push_back("v" + std::to_string(i));
  }
  // Duplicate key inside the batch: the later value must win after
  // intra-batch coalescing.
  key_strs.push_back("wt0");
  value_strs.push_back("v0-final");
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();

  auto counters = storage.counters();
  EXPECT_EQ(counters.batch_calls, 1u);  // One remote call for the batch.
  EXPECT_EQ(counters.writes, 32u);      // 32 distinct keys; dup coalesced.

  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.write_through.batch_calls, 1u);
  EXPECT_EQ(stats.write_through.submitted, 33u);
  EXPECT_EQ(stats.write_through.storage_writes, 32u);  // Dup coalesced.

  std::string value;
  ASSERT_TRUE(storage.Read("wt0", &value).ok());
  EXPECT_EQ(value, "v0-final");
  ASSERT_TRUE((*db)->Get("wt0", &value).ok());
  EXPECT_EQ(value, "v0-final");
}

TEST(TierBaseMultiOpsTest, WriteBackMultiSetMarksBatchDirty) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_threshold = 1000;           // No early flush.
  options.write_back.flush_interval_micros = 10'000'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 20; ++i) {
    key_strs.push_back("wb" + std::to_string(i));
    value_strs.push_back("v" + std::to_string(i));
  }
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());

  // Every key is dirty (accounted) and storage untouched until the flush.
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.write_back.updates, 20u);
  EXPECT_EQ(storage.size(), 0u);

  // MultiGet serves the batch from the cache tier (no storage reads).
  std::vector<std::string> out;
  (*db)->MultiGet(keys, &out, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok());
    EXPECT_EQ(out[i], value_strs[i]);
  }
  EXPECT_EQ(storage.counters().reads, 0u);

  ASSERT_TRUE((*db)->WaitIdle().ok());
  EXPECT_EQ(storage.size(), 20u);
  auto flushed = (*db)->GetStats().write_back;
  EXPECT_EQ(flushed.flushed_ops, 20u);
}

TEST(TierBaseMultiOpsTest, WriteBackMultiGetServesDirtyAfterEviction) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.memory_budget = 4 * 1024;  // Tiny: forces OutOfSpace.
  options.write_back.flush_threshold = 100000;
  options.write_back.flush_interval_micros = 10'000'000;
  options.write_back.max_dirty = 100000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  // Far more dirty data than the cache holds: the overflow lives only in
  // the dirty buffer, and MultiGet must still return every value.
  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 60; ++i) {
    key_strs.push_back("spill" + std::to_string(i));
    value_strs.push_back(std::string(200, 'a' + (i % 26)));
  }
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<std::string> out;
  (*db)->MultiGet(keys, &out, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << key_strs[i];
    EXPECT_EQ(out[i], value_strs[i]);
  }
  EXPECT_EQ(storage.counters().reads, 0u);  // Dirty buffer, not storage.
}

TEST(TierBaseMultiOpsTest, MultiGetMissesFetchInOneBatchAndPopulate) {
  MockStorageAdapter storage;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        storage.Write("cold" + std::to_string(i), "s" + std::to_string(i))
            .ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs;
  for (int i = 0; i < 40; ++i) key_strs.push_back("cold" + std::to_string(i));
  key_strs.push_back("missing-everywhere");
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> out;
  std::vector<Status> statuses;
  (*db)->MultiGet(keys, &out, &statuses);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
    EXPECT_EQ(out[static_cast<size_t>(i)], "s" + std::to_string(i));
  }
  EXPECT_TRUE(statuses[40].IsNotFound());
  // All 41 misses were served by one batched MultiRead round trip.
  EXPECT_EQ(storage.counters().batch_calls, 1u);

  // The fetched values were batch-populated: a second MultiGet is all
  // cache hits with no further storage traffic.
  auto batch_calls_before = storage.counters().batch_calls;
  (*db)->MultiGet(keys, &out, &statuses);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
  }
  EXPECT_GE((*db)->GetStats().storage_populates, 40u);
  // Only the still-missing key goes back to storage.
  EXPECT_LE(storage.counters().batch_calls, batch_calls_before + 1);
}

// --- Cache fill after a miss vs a concurrent write. ---

// Mock storage whose first read parks after reading, until released: a
// test can complete a write between a miss's storage read and its cache
// fill.
class ParkingStorage : public MockStorageAdapter {
 public:
  Status Read(const Slice& key, std::string* value) override {
    Status s = MockStorageAdapter::Read(key, value);
    Park();
    return s;
  }
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override {
    Status s = MockStorageAdapter::MultiRead(keys, values, found);
    Park();
    return s;
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(park_mu_);
    park_cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(park_mu_);
    released_ = true;
    park_cv_.notify_all();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(park_mu_);
    parked_ = true;
    park_cv_.notify_all();
    park_cv_.wait(lock, [this] { return released_; });
  }

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  bool parked_ = false;
  bool released_ = false;
};

// A miss reads v1 from storage; a Set of v2 completes before the miss
// fills the cache. The fill must not replace v2: it once did (a plain
// cache Set), and the cache then served v1 until eviction.
TEST(TierBasePopulateTest, FillNeverOverwritesAConcurrentSet) {
  for (CachingPolicy policy :
       {CachingPolicy::kWriteThrough, CachingPolicy::kWriteBack}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(std::string(CachingPolicyName(policy)) +
                   (batched ? " MultiGet" : " Get"));
      ParkingStorage storage;
      ASSERT_TRUE(storage.Write("k", "v1").ok());
      TierBaseOptions options;
      options.policy = policy;
      auto db = TierBase::Open(options, &storage);
      ASSERT_TRUE(db.ok());

      std::string read;
      std::thread reader([&] {
        if (batched) {
          std::vector<std::string> out;
          std::vector<Status> statuses;
          (*db)->MultiGet({Slice("k")}, &out, &statuses);
          if (statuses[0].ok()) read = out[0];
        } else {
          (void)(*db)->Get("k", &read);
        }
      });
      storage.WaitParked();
      ASSERT_TRUE((*db)->Set("k", "v2").ok());
      storage.Release();
      reader.join();
      EXPECT_EQ(read, "v1");  // Read before the Set completed.

      std::string value;
      ASSERT_TRUE((*db)->Get("k", &value).ok());
      EXPECT_EQ(value, "v2");
      ASSERT_TRUE((*db)->cache()->Get("k", &value).ok());
      EXPECT_EQ(value, "v2");
      EXPECT_EQ((*db)->GetStats().storage_populates, 0u);
    }
  }
}

// The deferred-fetch counters reconcile with the cache and the storage
// tier on a write-back instance whose budget forces misses and eviction:
// every miss is one deferred fetch, and every fetch that did not share
// another's read is one key read from storage.
TEST(TierBaseStatsTest, DeferredFetchCountersReconcile) {
  MockStorageAdapter::Options mock_options;
  mock_options.latency_micros = 200;  // Lets concurrent misses share reads.
  MockStorageAdapter storage(mock_options);
  constexpr int kKeys = 2'000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        storage.Write("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.shards = 4;
  options.cache.memory_budget = 64 * 1024;
  options.write_back.flush_interval_micros = 2'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, t] {
      Random rng(static_cast<uint32_t>(31 + t));
      for (int op = 0; op < 300; ++op) {
        std::string key = "key" + std::to_string(rng.Uniform(kKeys));
        std::string value;
        if (op % 3 == 0) {
          ASSERT_TRUE((*db)->Set(key, std::string(100, 'w')).ok());
        } else if (op % 3 == 1) {
          ASSERT_TRUE((*db)->Get(key, &value).ok()) << key;
        } else {
          std::vector<std::string> key_strs;
          for (int i = 0; i < 8; ++i) {
            key_strs.push_back("key" + std::to_string(rng.Uniform(kKeys)));
          }
          key_strs.push_back(key_strs[0]);  // A repeat shares its read.
          std::vector<Slice> keys(key_strs.begin(), key_strs.end());
          std::vector<std::string> out;
          std::vector<Status> statuses;
          (*db)->MultiGet(keys, &out, &statuses);
          for (const Status& s : statuses) ASSERT_TRUE(s.ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto stats = (*db)->GetStats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.deferred_fetch.shared, 0u);
  EXPECT_EQ(stats.cache_misses, stats.deferred_fetch.fetches);
  EXPECT_EQ(storage.counters().reads,
            stats.deferred_fetch.fetches - stats.deferred_fetch.shared);
  EXPECT_LE(stats.deferred_fetch.batch_calls, stats.deferred_fetch.fetches);
}

}  // namespace
}  // namespace tierbase
