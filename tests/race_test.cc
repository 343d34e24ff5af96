// Race-stress suite: hammers every cross-thread seam in the system with
// small, timed workloads. The suite is designed to run under
// ThreadSanitizer (cmake -DTIERBASE_SANITIZE=thread); each test is also a
// functional regression test, so the suite stays in the tier-1 run even
// without TSan. Every scenario targets one specific seam:
//
//   * cache eviction vs cross-shard MultiGet/MultiSet batches
//   * the write-back FlusherLoop vs foreground Set/FlushAll
//   * write-through writers of one hot key vs each other's cache installs
//   * ElasticExecutor controller scale-up vs concurrent Submit/Execute
//   * the wire-replica pull/apply thread vs concurrent reads
//   * the server event loop vs a SHUTDOWN drain under client load
//   * multi-reactor accept-distribute (cross-loop connection hand-off)
//     vs a racing SHUTDOWN
//   * cross-loop metrics snapshots (INFO render + per-shard gauges) vs
//     serving traffic on every loop
//   * oplog appends vs concurrent REPLPULL-style range reads
//   * the circuit breaker state machine vs concurrent callers
//   * the lock-striped latency histogram vs snapshot/reset readers
//
// Iteration counts are sized so the whole suite finishes well under a
// minute even at TSan's slowdown on one core.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/workload_analytics.h"
#include "cache/hash_engine.h"
#include "cluster_net/node_state.h"
#include "cluster_net/oplog.h"
#include "common/hash.h"
#include "common/circuit_breaker.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "core/write_back.h"
#include "server/client.h"
#include "server/server.h"
#include "threading/elastic_executor.h"

namespace tierbase {
namespace {

std::string Key(int t, int i) {
  return "k" + std::to_string(t) + "_" + std::to_string(i);
}

// --- Seam 1: cross-shard Multi ops vs eviction. -------------------------

TEST(RaceTest, CacheMultiOpsVsEviction) {
  cache::HashEngineOptions opt;
  opt.shards = 4;
  opt.memory_budget = 64 << 10;  // Small enough that writers evict.
  cache::HashEngine engine(opt);

  constexpr int kWriters = 2;
  constexpr int kRounds = 200;
  constexpr int kBatch = 16;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&engine, t] {
      std::string value(256, 'v');
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::string> key_strs;
        for (int i = 0; i < kBatch; ++i) key_strs.push_back(Key(t, i + r));
        std::vector<Slice> keys(key_strs.begin(), key_strs.end());
        std::vector<Slice> values(kBatch, Slice(value));
        std::vector<Status> statuses;
        engine.MultiSet(keys, values, &statuses);
        std::vector<std::string> out;
        engine.MultiGet(keys, &out, &statuses);
      }
    });
  }
  // A reader sweeping stats and scanning while the writers churn the LRU.
  threads.emplace_back([&engine, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)engine.GetUsage();
      (void)engine.lru_touches();
      std::vector<std::string> keys;
      (void)engine.Scan(0, 64, &keys);
      (void)engine.SweepExpired();
    }
  });

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_GT(engine.evictions(), 0u);
  // Budget is enforced (per shard) at all times.
  EXPECT_LE(engine.GetUsage().memory_bytes, opt.memory_budget + (16 << 10));
}

// --- Seam 2: write-back flusher vs foreground writes and FlushAll. ------

TEST(RaceTest, WriteBackFlusherVsForeground) {
  // A storage round trip (as in the disaggregated deployment) keeps each
  // flush in flight long enough for writers to re-dirty keys it has not
  // taken yet; with an instant mock a fast host flushes every key before
  // its writer returns to it, and the merge path below never runs.
  MockStorageAdapter::Options storage_opt;
  storage_opt.latency_micros = 100;
  MockStorageAdapter storage(storage_opt);
  WriteBackOptions opt;
  opt.flush_threshold = 8;
  opt.flush_interval_micros = 500;
  opt.max_batch = 16;
  opt.max_dirty = 64;  // Small: exercises backpressure blocking too.
  WriteBackManager wb(&storage, opt);

  constexpr int kWriters = 2;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&wb, t] {
      for (int i = 0; i < kOps; ++i) {
        // Skewed, like real write traffic: every other op re-dirties the
        // writer's hot key (the merge path), the rest cycle 49 cold keys.
        // Cold keys alone never merge under oldest-first flushing, which
        // takes each before its writer comes back to it.
        std::string k = Key(t, i % 2 == 0 ? 0 : 1 + (i / 2) % 49);
        ASSERT_TRUE(wb.MarkDirty(k, "v" + std::to_string(i), false).ok());
        std::string v;
        bool del = false;
        (void)wb.GetDirty(k, &v, &del);
        (void)wb.IsDirty(k);
      }
    });
  }
  // FlushAll racing the interval-driven flusher and the writers.
  threads.emplace_back([&wb] {
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(wb.FlushAll().ok());
  });
  for (auto& th : threads) th.join();

  ASSERT_TRUE(wb.FlushAll().ok());
  EXPECT_EQ(wb.dirty_count(), 0u);
  EXPECT_TRUE(wb.flush_error().ok());
  // Every distinct key reached storage.
  EXPECT_EQ(storage.size(), static_cast<size_t>(kWriters * 50));
  // Re-dirtying merged at least some updates into pending entries.
  EXPECT_GT(wb.GetStats().merged_updates, 0u);
}

// --- Seam 2b: write-through cache installs vs storage order. -----------

// Threads mixing Set, MultiSet and Delete on one hot key over a storage
// tier with a round trip: concurrent writes coalesce, and every writer
// returns together once the newest value is stored. The cache must end
// each trial holding what storage holds (or neither holding the key): a
// writer whose value was superseded must not install it afterwards, and a
// Set must not land in the cache after a later Delete.
TEST(RaceTest, WriteThroughCacheFollowsStorageOrder) {
  MockStorageAdapter inner;
  RemoteStorageAdapter storage(&inner, /*rtt_micros=*/50);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  constexpr int kTrials = 100;
  constexpr int kThreads = 4;
  constexpr int kOps = 30;
  int mismatches = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&db, t, trial] {
        for (int i = 0; i < kOps; ++i) {
          const std::string value = "v" + std::to_string(t) + "_" +
                                    std::to_string(trial) + "_" +
                                    std::to_string(i);
          switch ((t + i) % 4) {
            case 0:
            case 1:
              ASSERT_TRUE((*db)->Set("hot", value).ok());
              break;
            case 2: {
              std::vector<Status> statuses;
              (*db)->MultiSet({Slice("hot"), Slice(Key(t, i % 4))},
                              {Slice(value), Slice(value)}, &statuses);
              for (const Status& s : statuses) ASSERT_TRUE(s.ok());
              break;
            }
            default:
              ASSERT_TRUE((*db)->Delete("hot").ok());
              break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    std::string cached, stored;
    const Status cs = (*db)->cache()->Get("hot", &cached);
    const Status ss = inner.Read("hot", &stored);
    const bool match = cs.ok() == ss.ok() && (!cs.ok() || cached == stored);
    if (!match) ++mismatches;
    EXPECT_TRUE(match) << "trial " << trial << ": cache "
                       << (cs.ok() ? cached : "<absent>") << ", storage "
                       << (ss.ok() ? stored : "<absent>");
  }
  EXPECT_EQ(mismatches, 0);
}

// --- Seam 3: ElasticExecutor scale-up vs Submit/Execute. ----------------

TEST(RaceTest, ExecutorScaleUpVsSubmit) {
  threading::ElasticOptions opt;
  opt.mode = threading::ThreadMode::kElastic;
  opt.max_threads = 4;
  opt.scale_up_depth = 4;
  opt.control_interval_micros = 1'000;  // Fast controller: lots of churn.
  opt.up_votes = 1;
  opt.down_votes = 2;
  auto executor = std::make_unique<threading::ElasticExecutor>(opt);

  constexpr int kSubmitters = 3;
  constexpr int kTasks = 500;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&executor, &done] {
      for (int i = 0; i < kTasks; ++i) {
        if (i % 16 == 0) {
          executor->Execute([&done] { done.fetch_add(1); });
        } else {
          executor->Submit([&done] { done.fetch_add(1); });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Shutdown drains the queue: every submitted task ran exactly once.
  executor->Shutdown();
  EXPECT_EQ(done.load(), kSubmitters * kTasks);
}

// --- Seam 4: wire-replica apply thread vs concurrent reads. -------------

TEST(RaceTest, WireReplicaApplyVsReads) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  db_opt.cache.shards = 2;
  auto master_db = TierBase::Open(db_opt, nullptr);
  auto replica_db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(master_db.ok());
  ASSERT_TRUE(replica_db.ok());

  cluster_net::NodeClusterState::Options master_opt;
  master_opt.id = "m";
  master_opt.oplog_capacity = 64;  // Small ring: the puller may resync.
  cluster_net::NodeClusterState master(master_db.value().get(), master_opt);
  server::ServerOptions srv_opt;
  srv_opt.executor.max_threads = 2;
  server::Server srv(master_db.value().get(), srv_opt);
  srv.commands()->set_cluster(&master);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  cluster_net::NodeClusterState::Options replica_opt;
  replica_opt.id = "r";
  replica_opt.pull_interval_micros = 200;
  cluster_net::NodeClusterState replica(replica_db.value().get(),
                                        replica_opt);
  ASSERT_TRUE(replica.StartReplicaOf("127.0.0.1", port).ok());

  constexpr int kWriters = 2;
  constexpr int kOps = 300;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([port, t] {
      server::Client c;
      ASSERT_TRUE(c.Connect("127.0.0.1", port).ok());
      server::RespValue reply;
      for (int i = 0; i < kOps; ++i) {
        ASSERT_TRUE(
            c.Call({"SET", Key(t, i % 40), "v" + std::to_string(i)}, &reply)
                .ok());
        if (i % 10 == 9) {
          ASSERT_TRUE(c.Call({"DEL", Key(t, i % 40)}, &reply).ok());
        }
      }
    });
  }
  TierBase* rdb = replica_db.value().get();
  threads.emplace_back([rdb, &replica, &stop] {
    std::string v, info;
    while (!stop.load(std::memory_order_acquire)) {
      (void)replica.replica_applied_seq();
      (void)replica.replica_lag();
      info.clear();
      replica.AppendInfo(&info);
      (void)rdb->Get("k0_0", &v);
    }
  });
  for (int t = 0; t < kWriters; ++t) threads[t].join();

  // Every acknowledged write is in the master's oplog; the replica catches
  // up to its head while the reader keeps racing the apply thread.
  const uint64_t head = master.oplog()->head_seq();
  for (int i = 0; i < 5000 && replica.replica_applied_seq() < head; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();
  replica.StopReplication();
  srv.Stop();

  EXPECT_GE(replica.replica_applied_seq(), head);
  // k0_18 is only ever Set, never Deleted (i%40==18 never has i%10==9),
  // so once caught up it must be visible on the replica.
  std::string v;
  EXPECT_TRUE(rdb->Get(Key(0, 18), &v).ok());
}

// --- Seam 5: server event loop vs SHUTDOWN drain under load. ------------

TEST(RaceTest, ServerShutdownDrainUnderLoad) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  db_opt.cache.shards = 4;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 3;
  srv_opt.executor.control_interval_micros = 1'000;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([port, t] {
      server::Client c;
      if (!c.Connect("127.0.0.1", port).ok()) return;
      for (int i = 0; i < 150; ++i) {
        // Pipeline a small burst; replies may die mid-drain once SHUTDOWN
        // lands — IO errors are expected, data races are not.
        for (int j = 0; j < 4; ++j) {
          c.Append({"SET", Key(t, i * 4 + j), "v"});
        }
        if (!c.Flush().ok()) return;
        server::RespValue reply;
        for (int j = 0; j < 4; ++j) {
          if (!c.ReadReply(&reply).ok()) return;
        }
      }
    });
  }
  // Let the clients build up traffic, then shut down through the command
  // path (exercises the drain deadline against in-flight batches).
  std::thread shutdowner([port] {
    server::Client c;
    if (!c.Connect("127.0.0.1", port).ok()) return;
    server::RespValue reply;
    (void)c.Call({"SHUTDOWN"}, &reply);
  });
  srv.Wait();
  for (auto& th : clients) th.join();
  shutdowner.join();
  srv.Stop();
  SUCCEED();  // The assertion is "no race / no deadlock / clean exit".
}

// --- Seam 5b: accept-distribute hand-off vs SHUTDOWN. -------------------
//
// The multi-reactor acceptor parks fresh sockets in a sibling loop's
// pending-accept queue; a racing SHUTDOWN must either adopt or cleanly
// refuse every handed-off fd (no leak, no double close, no race on the
// admission gauge).

TEST(RaceTest, AcceptDistributeVsShutdown) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.net.io_threads = 3;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 2;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  // Connection churn: every accept crosses the loop hand-off seam.
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([port, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        server::Client c;
        if (!c.Connect("127.0.0.1", port).ok()) return;  // Stopped.
        server::RespValue reply;
        if (!c.Call({"PING"}, &reply).ok()) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread shutdowner([port] {
    server::Client c;
    if (!c.Connect("127.0.0.1", port).ok()) return;
    server::RespValue reply;
    (void)c.Call({"SHUTDOWN"}, &reply);
  });
  srv.Wait();
  stop.store(true, std::memory_order_release);
  for (auto& th : churners) th.join();
  shutdowner.join();
  srv.Stop();
  // Clean exit and a settled admission gauge: every handed-off fd was
  // either adopted-then-closed or refused-and-released.
  EXPECT_EQ(0u, srv.loop()->connections_active());
}

// --- Seam 5c: cross-loop metrics snapshots vs serving traffic. ----------
//
// INFO/METRICS render per-loop gauges from every shard while all loops are
// serving; the snapshot path must never tear or race against the loops'
// relaxed counter updates.

TEST(RaceTest, CrossLoopMetricsSnapshotsVsTraffic) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  db_opt.cache.shards = 4;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.net.io_threads = 4;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 2;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, t, &stop] {
      server::Client c;
      if (!c.Connect("127.0.0.1", port).ok()) return;
      server::RespValue reply;
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!c.Call({"SET", Key(t, i++ & 255), "v"}, &reply).ok()) return;
      }
    });
  }
  // Snapshot reader: aggregated EventLoop getters, per-shard gauges, and
  // the full INFO render (which walks the per-loop block) in a tight loop.
  std::thread reader([&srv, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      server::EventLoop* loop = srv.loop();
      uint64_t sum = loop->batches_dispatched() + loop->loop_wakeups() +
                     loop->connections_accepted();
      for (size_t s = 0; s < loop->shard_count(); ++s) {
        sum += loop->shard(s)->connections_active() +
               loop->shard(s)->wakeups();
      }
      std::string info;
      srv.commands()->registry()->RenderInfo(&info);
      ASSERT_NE(std::string::npos, info.find("connected_clients_loop3"));
      (void)sum;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();
  reader.join();
  EXPECT_GE(srv.loop()->commands_dispatched(), 4u);
  srv.Stop();
}

// --- Seam 6: oplog appends vs REPLPULL-style range reads. ---------------

TEST(RaceTest, OplogAppendVsRangeReads) {
  cluster_net::OpLog oplog(128);  // Bounded ring: readers race the bound.

  constexpr int kAppenders = 2;
  constexpr int kOps = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&oplog, t] {
      for (int i = 0; i < kOps; ++i) {
        cluster_net::ReplOp op;
        op.type = cluster_net::ReplOp::Type::kSet;
        op.key = Key(t, i);
        op.value = "v";
        oplog.Append(std::move(op));
      }
    });
  }
  threads.emplace_back([&oplog, &stop] {
    uint64_t from = 1;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<cluster_net::ReplOp> ops;
      if (!oplog.Read(from, 64, &ops)) {
        from = oplog.min_seq();  // Fell off the ring: "full resync".
        continue;
      }
      uint64_t prev = from - 1;
      for (const auto& op : ops) {
        ASSERT_GT(op.seq, prev);  // Strictly increasing within a pull.
        prev = op.seq;
      }
      if (!ops.empty()) from = ops.back().seq + 1;
    }
  });
  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(oplog.head_seq(), static_cast<uint64_t>(kAppenders * kOps));
  EXPECT_GE(oplog.min_seq(), oplog.head_seq() - 128 + 1);
}

// --- Seam 7: circuit breaker state machine under concurrent callers. ----

TEST(RaceTest, CircuitBreakerConcurrentCallers) {
  // NetClusterClient and the proxy share per-node breakers across their
  // dispatch threads: Allow / RecordSuccess / RecordFailure race freely,
  // and the half-open gate must admit exactly one probe per cooldown.
  ManualClock clock;
  common::CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration_micros = 10;
  options.clock = &clock;
  common::CircuitBreaker breaker(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::atomic<uint64_t> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&breaker, &clock, &allowed, t] {
      for (int i = 0; i < kRounds; ++i) {
        if (breaker.Allow()) {
          allowed.fetch_add(1, std::memory_order_relaxed);
          // Mixed outcomes keep the machine cycling through every state.
          if ((t + i) % 3 == 0) {
            breaker.RecordFailure();
          } else {
            breaker.RecordSuccess();
          }
        }
        // Advancing time from every thread races cooldown expiry against
        // concurrent Allow calls (the half-open transition).
        if (i % 16 == 0) clock.Advance(5);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(allowed.load(), 0u);
  // Counters stayed coherent and the machine landed in a legal state.
  (void)breaker.trips();
  (void)breaker.fast_fails();
  std::string name = breaker.state_name();
  EXPECT_TRUE(name == "closed" || name == "open" || name == "half_open");
}

// --- Seam 8: lock-striped latency histogram vs snapshot readers. --------

TEST(RaceTest, LatencyHistogramRecordVsSnapshot) {
  // Every command on every executor thread records into the same striped
  // histogram while INFO / METRICS / LATENCY renders fold the stripes
  // into a snapshot. Writers must never lose a sample and readers must
  // only ever observe coherent (count, sum, max) triples.
  metrics::LatencyHistogram hist;

  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 20000;
  static constexpr uint64_t kMaxValue = 1 << 20;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        // Deterministic spread over the bucket range, including the
        // weighted path the coalesced trains use.
        // Never zero, so a one-sample snapshot still has a nonzero sum.
        const uint64_t v = (static_cast<uint64_t>(i) * 2654435761u +
                            static_cast<uint64_t>(t)) %
                               (kMaxValue - 1) +
                           1;
        if (i % 64 == 0) {
          hist.Record(v, 2);
        } else {
          hist.Record(v);
        }
      }
    });
  }
  std::thread reader([&hist, &stop] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Histogram snap = hist.Snapshot();
      // Counts are monotone across snapshots, and each snapshot is
      // internally coherent: a non-empty one has sum and max set.
      EXPECT_GE(snap.Count(), last_count);
      last_count = snap.Count();
      if (snap.Count() > 0) {
        EXPECT_GT(snap.Sum(), 0u);
        EXPECT_LT(snap.Max(), kMaxValue);
      }
      hist.Reset();  // Exercised under writers too: Reset must not tear.
      last_count = 0;
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // After the final reset-free window, one more deterministic pass: with
  // no concurrent Reset, nothing may be lost.
  hist.Reset();
  std::vector<std::thread> verify;
  for (int t = 0; t < kWriters; ++t) {
    verify.emplace_back([&hist] {
      for (int i = 0; i < kRecordsPerWriter; ++i) hist.Record(7);
    });
  }
  for (auto& t : verify) t.join();
  Histogram snap = hist.Snapshot();
  EXPECT_EQ(static_cast<uint64_t>(kWriters) * kRecordsPerWriter,
            snap.Count());
  EXPECT_EQ(static_cast<uint64_t>(kWriters) * kRecordsPerWriter * 7,
            snap.Sum());
  EXPECT_EQ(7u, snap.Max());
}

TEST(RaceTest, WorkloadAnalyticsRecordVsSnapshotAndReset) {
  // The workload observatory records on every server thread while
  // INFO/METRICS/ANALYTICS/HOTKEYS snapshot it and ANALYTICS RESET wipes
  // it, all concurrently. Nothing may tear, deadlock, or crash; snapshot
  // invariants (non-increasing curve, count coherence) must hold even
  // mid-reset.
  analytics::WorkloadAnalyticsOptions options;
  options.mrc_sample_rate = 2;   // Spatial filter exercised but most keys in.
  options.hotkey_sample_rate = 2;  // Temporal filter on.
  options.decay_interval = 4096;   // Force decays during the run.
  options.shards = 4;
  analytics::WorkloadAnalytics wa(options);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&wa, t] {
      char key[32];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Skewed: half the traffic on 8 hot keys, the rest spread wide.
        const int k = (i % 2 == 0) ? i % 8 : i % 4096;
        snprintf(key, sizeof(key), "w%dk%d", t, k);
        const Slice s(key);
        const uint64_t hash = Hash64(s.data(), s.size());
        if (i % 4 == 0) {
          wa.RecordWrite(s, hash, /*value_bytes=*/100,
                         /*ttl_micros=*/1'000'000);
        } else {
          wa.RecordRead(s, hash);
        }
      }
    });
  }
  std::thread reader([&wa, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      analytics::MrcSnapshot mrc = wa.Mrc();
      double last = 1.0;
      for (const analytics::MrcPoint& p : mrc.points) {
        EXPECT_LE(p.miss_ratio, last + 1e-9);
        last = p.miss_ratio;
      }
      for (int s = 0; s < wa.shards(); ++s) wa.Mrc(s);
      std::vector<analytics::HotKey> top = wa.TopKeys(10);
      for (size_t i = 1; i < top.size(); ++i) {
        EXPECT_GE(top[i - 1].count, top[i].count);
      }
      wa.tracked_keys();
      wa.total_accesses();
    }
  });
  std::thread resetter([&wa, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      wa.Reset();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  resetter.join();

  // Quiescent pass: with no concurrent reset, a hot key must surface and
  // the curve must account for every access it saw.
  wa.Reset();
  const Slice hot("hot");
  const uint64_t hot_hash = Hash64(hot.data(), hot.size());
  for (int i = 0; i < 1000; ++i) wa.RecordRead(hot, hot_hash);
  // The total counter flushes at the temporal-gate cadence (rate 2 here),
  // so up to one gate window per thread may still be pending.
  EXPECT_GE(wa.total_accesses(), 998u);
  EXPECT_LE(wa.total_accesses(), 1000u);
  std::vector<analytics::HotKey> top = wa.TopKeys(1);
  ASSERT_EQ(1u, top.size());
  EXPECT_EQ("hot", top[0].key);
}

}  // namespace
}  // namespace tierbase
