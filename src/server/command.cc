#include "server/command.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "cluster_net/node_state.h"
#include "common/clock.h"
#include "common/mutex.h"

namespace tierbase {
namespace server {

namespace {

// SLOWLOG entries keep at most this many keys per command (Redis caps
// logged args the same way).
constexpr size_t kSlowlogMaxKeys = 8;

bool ParseArgDouble(const Slice& arg, double* out) {
  if (arg.empty() || arg.size() > 63) return false;
  char buf[64];
  memcpy(buf, arg.data(), arg.size());
  buf[arg.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  double v = strtod(buf, &end);
  if (errno != 0 || end != buf + arg.size()) return false;
  *out = v;
  return true;
}

/// Redis-style score formatting: integral scores print without a decimal
/// point, everything else with %.17g round-trip precision.
std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

constexpr const char* kOk = "OK";
constexpr uint64_t kMicrosPerSecond = 1'000'000;

uint64_t NowMicros() { return Clock::Real()->NowMicros(); }

}  // namespace

// The node's commands. Arity: {min, max} inclusive argument counts
// (command name included, max 0 = unbounded); key specs {first, last,
// step} as in Redis.
const std::vector<CommandTable::Entry>& CommandTable::DataCommands() {
  static const std::vector<Entry> kCommands = {
      {{"GET", 2, 2, 0, {1, 1, 1}}, &CommandTable::Get},
      {{"SET", 3, 5, kCommandWrite, {1, 1, 1}}, &CommandTable::Set},
      {{"DEL", 2, 0, kCommandWrite, {1, -1, 1}}, &CommandTable::Del},
      {{"EXISTS", 2, 0, 0, {1, -1, 1}}, &CommandTable::Exists},
      {{"MGET", 2, 0, 0, {1, -1, 1}}, &CommandTable::MGet},
      {{"MSET", 3, 0, kCommandWrite, {1, -1, 2}}, &CommandTable::MSet},
      {{"EXPIRE", 3, 3, kCommandWrite, {1, 1, 1}}, &CommandTable::Expire},
      {{"TTL", 2, 2, 0, {1, 1, 1}}, &CommandTable::Ttl},
      {{"INCR", 2, 2, kCommandWrite, {1, 1, 1}}, &CommandTable::Incr},
      {{"HSET", 4, 0, kCommandWrite, {1, 1, 1}}, &CommandTable::HSet},
      {{"HGET", 3, 3, 0, {1, 1, 1}}, &CommandTable::HGet},
      {{"LPUSH", 3, 0, kCommandWrite, {1, 1, 1}}, &CommandTable::LPush},
      {{"LRANGE", 4, 4, 0, {1, 1, 1}}, &CommandTable::LRange},
      {{"ZADD", 4, 0, kCommandWrite, {1, 1, 1}}, &CommandTable::ZAdd},
      {{"ZRANGE", 4, 5, 0, {1, 1, 1}}, &CommandTable::ZRange},
      {{"SCAN", 2, 4, 0, {}}, &CommandTable::Scan},
      {{"DBSIZE", 1, 1, 0, {}}, &CommandTable::DbSize},
      {{"FLUSHALL", 1, 1, kCommandWrite, {}}, &CommandTable::FlushAll},
      {{"CLUSTER", 2, 3, 0, {}}, &CommandTable::Cluster},
      {{"REPLICAOF", 3, 3, 0, {}}, &CommandTable::ReplicaOf},
      {{"REPLPULL", 4, 4, 0, {}}, &CommandTable::ReplPull},
      {{"REPLSNAPSHOT", 3, 3, 0, {}}, &CommandTable::ReplSnapshot},
      {{"WAIT", 3, 3, 0, {}}, &CommandTable::Wait},
      {{"SLOWLOG", 2, 3, 0, {}}, &CommandTable::SlowLogCmd},
      {{"LATENCY", 2, 3, 0, {}}, &CommandTable::Latency},
      {{"PERF", 2, 2, 0, {}}, &CommandTable::Perf},
  };
  return kCommands;
}

CommandTable::CommandTable(TierBase* db) : db_(db) {
  // Data commands first: the lookup scans in registration order, and GET
  // and SET lead.
  for (const Entry& e : DataCommands()) Add(e.spec, e.handler);
  RegisterSharedCommands(&registry_, db_->analytics(),
                         [db] { return db->WaitIdle(); });
  get_index_ = Find("GET");
  set_index_ = Find("SET");
  RegisterInstruments();
}

void CommandTable::RegisterInstruments() {
  // Section registration order fixes the INFO section order.
  registry_.AddText("Server", "engine", [this] { return db_->name(); });
  registry_.AddText("Server", "telemetry",
                    [this] { return telemetry_ ? "on" : "off"; });

  // Cluster membership attaches after construction (set_cluster), and its
  // key set is dynamic (role-dependent), so the whole section is a block.
  registry_.AddBlock("Cluster", [this](std::string* out) {
    if (cluster_ != nullptr) {
      cluster_->AppendInfo(out);
    } else {
      out->append("cluster_enabled:0\r\n");
    }
  });

  // One aggregated engine snapshot per render; the per-key callbacks below
  // read fields out of it instead of re-locking every cache shard each.
  registry_.AddPreRender([this] { info_stats_ = db_->GetStats(); });
  auto stat = [this](const char* section, const char* key, const char* help,
                     std::function<uint64_t()> fn,
                     metrics::MetricType type = metrics::MetricType::kCounter) {
    registry_.AddCallback(section, key, help, type, std::move(fn));
  };

  commands_ = registry_.AddCounter("Stats", "total_commands_processed",
                                   "Commands executed");
  batches_ = registry_.AddCounter("Stats", "dispatch_batches",
                                  "Pipelined batches executed");
  coalesced_ = registry_.AddCounter(
      "Stats", "coalesced_commands",
      "Commands served through coalesced MultiGet/MultiSet trains");
  errors_ = registry_.AddCounter("Stats", "command_errors",
                                 "Commands answered with an error reply");
  stat("Stats", "gets", "Engine point reads",
       [this] { return info_stats_.gets; });
  stat("Stats", "sets", "Engine point writes",
       [this] { return info_stats_.sets; });
  stat("Stats", "keyspace_hits", "Cache-tier read hits",
       [this] { return info_stats_.cache_hits; });
  stat("Stats", "keyspace_misses", "Cache-tier read misses",
       [this] { return info_stats_.cache_misses; });
  stat("Stats", "evicted_keys", "Keys evicted by the cache budget",
       [this] { return info_stats_.evictions; });
  stat("Stats", "expired_keys", "Keys removed by TTL expiry",
       [this] { return info_stats_.expirations; });
  stat("Stats", "lru_touches", "LRU promotions on hit",
       [this] { return info_stats_.lru_touches; });
  stat("Stats", "multi_shard_locks", "Multi-op shard lock rounds",
       [this] { return info_stats_.multi_shard_locks; });
  stat("Stats", "multi_batches", "MultiGet/MultiSet engine batches",
       [this] { return info_stats_.multi_batches; });
  stat("Stats", "storage_populates", "Cache fills from the storage tier",
       [this] { return info_stats_.storage_populates; });
  stat("Stats", "write_back_flushed_ops",
       "Dirty entries flushed to storage",
       [this] { return info_stats_.write_back.flushed_ops; });
  stat("Stats", "write_back_flush_batches", "Write-back flush batches",
       [this] { return info_stats_.write_back.flush_batches; });
  stat("Stats", "write_through_storage_writes",
       "Synchronous storage-tier writes",
       [this] { return info_stats_.write_through.storage_writes; });
  stat("Stats", "deferred_fetches", "Deferred storage fetches",
       [this] { return info_stats_.deferred_fetch.fetches; });
  stat("Stats", "deferred_fetch_batches",
       "Storage MultiReads issued by deferred fetching",
       [this] { return info_stats_.deferred_fetch.batch_calls; });
  stat("Stats", "deferred_fetch_shared",
       "Deferred fetches that shared another's storage read",
       [this] { return info_stats_.deferred_fetch.shared; });
  stat("Stats", "evict_pinned_skips",
       "Pinned dirty entries eviction walked past",
       [this] { return info_stats_.evict_pinned_skips; });

  // # Commandstats: one latency histogram per command, recorded dispatch
  // -> reply, plus one for unknown names.
  for (size_t i = 0; i < size(); ++i) {
    const std::string name = spec(static_cast<int>(i)).name;
    std::string lower;
    for (char c : name) {
      lower.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    cmd_hist_.push_back(registry_.AddHistogram(
        "Commandstats", "cmd_" + lower + "_latency_us",
        name + " latency, dispatch to reply, microseconds"));
  }
  cmd_hist_.push_back(registry_.AddHistogram(
      "Commandstats", "cmd_other_latency_us",
      "Latency of unknown commands, microseconds"));

  registry_.AddText("Persistence", "policy", [this] { return db_->name(); });
  stat("Persistence", "wb_dirty", "Dirty write-back entries pending flush",
       [this] { return info_stats_.write_back_dirty; },
       metrics::MetricType::kGauge);
  stat("Persistence", "wb_oldest_dirty_age_us",
       "Age of the oldest unflushed write-back entry, microseconds",
       [this] { return info_stats_.write_back_oldest_dirty_age_us; },
       metrics::MetricType::kGauge);
  stat("Persistence", "wb_flush_batches", "Write-back flush batches",
       [this] { return info_stats_.write_back.flush_batches; });
  stat("Persistence", "wb_flushed_ops", "Dirty entries flushed",
       [this] { return info_stats_.write_back.flushed_ops; });
  stat("Persistence", "wb_flush_failures", "Write-back flush failures",
       [this] { return info_stats_.write_back.flush_failures; });
  stat("Persistence", "wb_flush_retries", "Write-back flush retries",
       [this] { return info_stats_.write_back.flush_retries; });
  stat("Persistence", "wb_backpressure_waits",
       "Writes stalled on the dirty-set cap",
       [this] { return info_stats_.write_back.backpressure_waits; });
  registry_.AddText("Persistence", "wb_flush_error", [this] {
    return info_stats_.flush_error.empty() ? std::string("ok")
                                           : info_stats_.flush_error;
  });
  stat("Persistence", "wal_replayed_records", "Cache WAL records replayed",
       [this] { return info_stats_.wal_replayed_records; });
  stat("Persistence", "wal_truncated_tails", "Cache WAL tails truncated",
       [this] { return info_stats_.wal_truncated_tails; });
  stat("Persistence", "wal_skipped_bytes", "Cache WAL bytes skipped",
       [this] { return info_stats_.wal_skipped_bytes; });
  stat("Persistence", "storage_wal_replayed_records",
       "Storage WAL records replayed",
       [this] { return info_stats_.storage_wal.records_replayed; });
  stat("Persistence", "storage_wal_truncated_tails",
       "Storage WAL tails truncated",
       [this] { return info_stats_.storage_wal.truncated_tails; });
  stat("Persistence", "storage_wal_skipped_bytes",
       "Storage WAL bytes skipped",
       [this] { return info_stats_.storage_wal.skipped_bytes; });

  stat("Memory", "bytes_cached", "Bytes resident in the cache tier",
       [this] { return info_stats_.bytes_cached; },
       metrics::MetricType::kGauge);
  stat("Memory", "pmem_bytes", "Bytes resident in the pmem tier",
       [this] { return info_stats_.pmem_bytes; },
       metrics::MetricType::kGauge);

  stat("Keyspace", "keys_cached", "Keys resident in the cache tier",
       [this] { return info_stats_.keys_cached; },
       metrics::MetricType::kGauge);
  stat("Keyspace", "slowlog_len", "Entries currently in the slow log",
       [this] { return static_cast<uint64_t>(slowlog_.Len()); },
       metrics::MetricType::kGauge);

  // # Workload: the observatory's live view of the traffic itself (miss-
  // ratio curve, hot keys, keyspace shape), fed by the TierBase-owned
  // WorkloadAnalytics. Shared registration with the proxy.
  analytics::RegisterWorkloadInstruments(&registry_, db_->analytics());
}

void CommandTable::ExecuteBatch(const std::vector<RespCommand>& cmds,
                                std::string* out, bool* close_connection,
                                bool* shutdown_server, PerfState* perf,
                                const BatchTiming* timing) {
  batches_->Inc();
  commands_->Inc(cmds.size());

  // PERF tracing: install the connection's context for this batch. The
  // enabled flag is sampled once — PERF ON inside the batch takes effect
  // from the next batch on.
  metrics::PerfContext* pctx =
      (perf != nullptr && perf->enabled) ? &perf->ctx : nullptr;
  uint64_t exec_start = 0;
  uint64_t upstream_micros = 0;  // parse + queue wait, part of wall time.
  if (pctx != nullptr) {
    exec_start = NowMicros();
    if (timing != nullptr) {
      pctx->AddStage(metrics::PerfContext::kParse, timing->parse_micros);
      upstream_micros = timing->parse_micros;
      if (timing->dispatched_at_micros != 0 &&
          exec_start > timing->dispatched_at_micros) {
        const uint64_t queue_wait = exec_start - timing->dispatched_at_micros;
        pctx->AddStage(metrics::PerfContext::kQueueWait, queue_wait);
        upstream_micros += queue_wait;
      }
    }
  }
  metrics::ScopedPerfContext perf_scope(pctx);

  // Coalesced batches must be uniformly admissible in cluster mode: every
  // key owned here and (for SETs) not a read-only replica. A train with
  // any inadmissible command falls back to per-command dispatch so each
  // gets its own -MOVED / -READONLY reply.
  auto batch_admissible = [&](size_t begin, size_t end, bool write) {
    if (cluster_ == nullptr) return true;
    if (write && cluster_->is_replica()) return false;
    // One routing-snapshot fetch for the whole train, then lock-free
    // per-key checks.
    cluster_net::NodeClusterState::RouteChecker checker =
        cluster_->route_checker();
    for (size_t k = begin; k < end; ++k) {
      if (checker.Misrouted(cmds[k].args[1])) return false;
    }
    return true;
  };

  size_t i = 0;
  while (i < cmds.size()) {
    // Coalesce trains of plain single-key GETs / two-argument SETs that a
    // pipelining client queued back-to-back into one batched engine call.
    if (cmds[i].args.size() == 2 && EqualsUpper(cmds[i].args[0], "GET")) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 2 &&
             EqualsUpper(cmds[j].args[0], "GET")) {
        ++j;
      }
      if (j - i >= 2 && batch_admissible(i, j, /*write=*/false)) {
        const uint64_t t0 = telemetry_ ? NowMicros() : 0;
        CoalescedGets(cmds, i, j, out);
        if (telemetry_) {
          const uint64_t elapsed = NowMicros() - t0;
          RecordLatency(get_index_, elapsed, j - i);
          if (slowlog_.ShouldLog(elapsed)) {
            RecordSlowTrain(cmds, i, j, elapsed);
          }
        }
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    } else if (cmds[i].args.size() == 3 &&
               EqualsUpper(cmds[i].args[0], "SET")) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 3 &&
             EqualsUpper(cmds[j].args[0], "SET")) {
        ++j;
      }
      if (j - i >= 2 && batch_admissible(i, j, /*write=*/true)) {
        const uint64_t t0 = telemetry_ ? NowMicros() : 0;
        CoalescedSets(cmds, i, j, out);
        if (telemetry_) {
          const uint64_t elapsed = NowMicros() - t0;
          RecordLatency(set_index_, elapsed, j - i);
          if (slowlog_.ShouldLog(elapsed)) {
            RecordSlowTrain(cmds, i, j, elapsed);
          }
        }
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    }
    CommandCall call{cmds[i].args, out, perf};
    ExecuteOne(call);
    *close_connection |= call.close_connection;
    *shutdown_server |= call.shutdown_server;
    ++i;
  }

  if (pctx != nullptr) {
    pctx->AddBatch(NowMicros() - exec_start + upstream_micros, cmds.size());
  }
}

void CommandTable::RecordLatency(int index, uint64_t micros,
                                 uint64_t count) {
  cmd_hist_[index >= 0 ? static_cast<size_t>(index) : size()]->Record(
      micros, count);
}

void CommandTable::RecordSlow(const std::vector<Slice>& args, int index,
                              uint64_t micros) {
  std::vector<std::string> logged;
  logged.push_back(args[0].ToString());
  size_t total_keys = 0;
  if (index >= 0) {
    ForEachKey(spec(index).keys, args, [&](const Slice& key) {
      if (++total_keys <= kSlowlogMaxKeys) logged.push_back(key.ToString());
      return true;
    });
  }
  if (total_keys > kSlowlogMaxKeys) {
    logged.push_back("... (" + std::to_string(total_keys - kSlowlogMaxKeys) +
                     " more keys)");
  }
  slowlog_.Add(micros, std::move(logged));
}

void CommandTable::RecordSlowTrain(const std::vector<RespCommand>& cmds,
                                   size_t begin, size_t end,
                                   uint64_t micros) {
  std::vector<std::string> args;
  args.push_back(cmds[begin].args[0].ToString());
  const size_t keys = end - begin;
  for (size_t k = begin; k < end && k - begin < kSlowlogMaxKeys; ++k) {
    args.push_back(cmds[k].args[1].ToString());
  }
  if (keys > kSlowlogMaxKeys) {
    args.push_back("... (" + std::to_string(keys - kSlowlogMaxKeys) +
                   " more keys)");
  }
  slowlog_.Add(micros, std::move(args));
}

bool CommandTable::ClusterAdmits(const std::vector<Slice>& args,
                                 const CommandSpec& spec, std::string* out) {
  if (cluster_ == nullptr) return true;
  if ((spec.flags & kCommandWrite) && cluster_->is_replica()) {
    AppendError(out,
                "READONLY You can't write against a read only replica.");
    return false;
  }
  if (spec.keys.first == 0) return true;
  // One snapshot fetch per command; CheckMoved (second fetch) only runs on
  // the rare misrouted path to format the -MOVED payload.
  cluster_net::NodeClusterState::RouteChecker checker =
      cluster_->route_checker();
  return ForEachKey(spec.keys, args, [&](const Slice& key) {
    if (!checker.Misrouted(key)) return true;
    std::string moved;
    if (!cluster_->CheckMoved(key, &moved)) {
      moved = "MOVED 0 stale-route ?:0";  // Routing changed mid-check.
    }
    AppendError(out, moved);
    return false;
  });
}

void CommandTable::CoalescedGets(const std::vector<RespCommand>& cmds,
                                 size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys;
  keys.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) keys.push_back(cmds[i].args[1]);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet(keys, &values, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      AppendBulk(out, values[i]);
    } else if (statuses[i].IsNotFound()) {
      AppendNullBulk(out);
    } else {
      AppendStatusError(out, statuses[i]);
      errors_->Inc();
    }
  }
}

void CommandTable::CoalescedSets(const std::vector<RespCommand>& cmds,
                                 size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys, values;
  keys.reserve(end - begin);
  values.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    keys.push_back(cmds[i].args[1]);
    values.push_back(cmds[i].args[2]);
  }
  std::vector<Status> statuses;
  {
    // Apply + oplog-append atomically so replicas see writes in apply
    // order (see NodeClusterState::write_order_mu).
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    db_->MultiSet(keys, values, &statuses);
    if (cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(
          metrics::PerfContext::kOplogAppend);
      for (size_t i = 0; i < statuses.size(); ++i) {
        if (statuses[i].ok()) cluster_->RecordSet(keys[i], values[i], 0);
      }
    }
  }
  for (const Status& s : statuses) {
    if (s.ok()) {
      AppendSimpleString(out, kOk);
    } else {
      AppendStatusError(out, s);
      errors_->Inc();
    }
  }
}

void CommandTable::ExecuteOne(CommandCall& call) {
  if (!telemetry_) {
    ExecuteOneImpl(call);
    return;
  }
  const uint64_t t0 = NowMicros();
  const int index = ExecuteOneImpl(call);
  const uint64_t elapsed = NowMicros() - t0;
  RecordLatency(index, elapsed, 1);
  if (slowlog_.ShouldLog(elapsed) && !call.args.empty()) {
    RecordSlow(call.args, index, elapsed);
  }
}

int CommandTable::ExecuteOneImpl(CommandCall& call) {
  const size_t before = call.out->size();
  const int index = call.args.empty() ? -1 : Find(call.args[0]);
  if (index < 0 || !spec(index).ArityOk(call.args.size())) {
    Execute(index, call);  // The unknown-command or arity error.
  } else if (ClusterAdmits(call.args, spec(index), call.out)) {
    Run(index, call);
  }
  if (call.out->size() > before && (*call.out)[before] == '-') {
    errors_->Inc();
  }
  return index;
}

// PERF mutates the connection's own tracing state, which only the batch
// path carries.
void CommandTable::Perf(CommandCall& call) {
  if (call.perf == nullptr) {
    AppendError(call.out, "ERR PERF requires a client connection");
    return;
  }
  if (EqualsUpper(call.args[1], "ON")) {
    call.perf->ctx.Reset();
    call.perf->enabled = true;
    AppendSimpleString(call.out, kOk);
  } else if (EqualsUpper(call.args[1], "OFF")) {
    call.perf->enabled = false;
    AppendSimpleString(call.out, kOk);
  } else if (EqualsUpper(call.args[1], "GET")) {
    std::string report;
    call.perf->ctx.AppendReport(&report);
    AppendBulk(call.out, report);
  } else {
    AppendError(call.out, "ERR unknown PERF subcommand, try ON|OFF|GET");
  }
}

void CommandTable::Get(CommandCall& call) {
  std::string value;
  Status s = db_->Get(call.args[1], &value);
  if (s.ok()) {
    AppendBulk(call.out, value);
  } else if (s.IsNotFound()) {
    AppendNullBulk(call.out);
  } else {
    AppendStatusError(call.out, s);
  }
}

void CommandTable::Set(CommandCall& call) {
  uint64_t ttl_micros = 0;
  if (call.args.size() > 3) {
    // SET key value [EX seconds | PX millis].
    if (call.args.size() != 5) {
      AppendError(call.out, "ERR syntax error");
      return;
    }
    int64_t amount = 0;
    if (!ParseArgInt(call.args[4], &amount) || amount <= 0) {
      AppendError(call.out, "ERR invalid expire time in 'set' command");
      return;
    }
    if (EqualsUpper(call.args[3], "EX")) {
      ttl_micros = static_cast<uint64_t>(amount) * kMicrosPerSecond;
    } else if (EqualsUpper(call.args[3], "PX")) {
      ttl_micros = static_cast<uint64_t>(amount) * 1000;
    } else {
      AppendError(call.out, "ERR syntax error");
      return;
    }
  }
  Status s;
  {
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    s = ttl_micros == 0 ? db_->Set(call.args[1], call.args[2])
                        : db_->SetEx(call.args[1], call.args[2], ttl_micros);
    if (s.ok() && cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(metrics::PerfContext::kOplogAppend);
      cluster_->RecordSet(call.args[1], call.args[2], ttl_micros);
    }
  }
  if (s.ok()) {
    AppendSimpleString(call.out, kOk);
  } else {
    AppendStatusError(call.out, s);
  }
}

void CommandTable::Del(CommandCall& call) {
  int64_t removed = 0;
  for (size_t i = 1; i < call.args.size(); ++i) {
    // Delete is policy-aware (tombstones under write-back, synchronous
    // under write-through); count only keys that were present, as seen
    // through the cache, the write-back dirty buffer and storage, without
    // filling the cache just to answer a count.
    const bool existed = db_->Exists(call.args[i]);
    Status s;
    {
      common::OptionalMutexLock order_lock(
        cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
      s = db_->Delete(call.args[i]);
      if (s.ok() && cluster_ != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster_->RecordDelete(call.args[i]);
      }
    }
    if (s.ok() && existed) ++removed;
  }
  AppendInteger(call.out, removed);
}

void CommandTable::Exists(CommandCall& call) {
  int64_t count = 0;
  for (size_t i = 1; i < call.args.size(); ++i) {
    if (db_->cache()->Exists(call.args[i])) {
      ++count;
    } else if (db_->storage() != nullptr) {
      // Tiered: the key may live only in the storage tier; a Get both
      // answers existence and warms the cache.
      std::string scratch;
      if (db_->Get(call.args[i], &scratch).ok()) ++count;
    }
  }
  AppendInteger(call.out, count);
}

void CommandTable::MGet(CommandCall& call) {
  std::vector<Slice> keys(call.args.begin() + 1, call.args.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet(keys, &values, &statuses);
  AppendArrayHeader(call.out, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      AppendBulk(call.out, values[i]);
    } else {
      AppendNullBulk(call.out);  // Redis: wrong-type/missing both read as null.
    }
  }
}

void CommandTable::MSet(CommandCall& call) {
  std::vector<Slice> keys, values;
  for (size_t i = 1; i < call.args.size(); i += 2) {
    keys.push_back(call.args[i]);
    values.push_back(call.args[i + 1]);
  }
  std::vector<Status> statuses;
  {
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    db_->MultiSet(keys, values, &statuses);
    if (cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(metrics::PerfContext::kOplogAppend);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (statuses[i].ok()) cluster_->RecordSet(keys[i], values[i], 0);
      }
    }
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      AppendStatusError(call.out, s);
      return;
    }
  }
  AppendSimpleString(call.out, kOk);
}

void CommandTable::Expire(CommandCall& call) {
  int64_t seconds = 0;
  if (!ParseArgInt(call.args[2], &seconds)) {
    AppendError(call.out, "ERR value is not an integer or out of range");
    return;
  }
  common::OptionalMutexLock order_lock(
    cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
  if (seconds <= 0) {
    // Redis deletes the key on a non-positive TTL.
    bool existed = db_->cache()->Exists(call.args[1]);
    if (existed) {
      db_->Delete(call.args[1]);
      if (cluster_ != nullptr) cluster_->RecordDelete(call.args[1]);
    }
    AppendInteger(call.out, existed ? 1 : 0);
    return;
  }
  const uint64_t ttl_micros =
      static_cast<uint64_t>(seconds) * kMicrosPerSecond;
  Status s = db_->cache()->Expire(call.args[1], ttl_micros);
  if (s.ok() && cluster_ != nullptr) {
    cluster_->RecordExpire(call.args[1], ttl_micros);
  }
  AppendInteger(call.out, s.ok() ? 1 : 0);
}

void CommandTable::Ttl(CommandCall& call) {
  Result<uint64_t> ttl = db_->cache()->Ttl(call.args[1]);
  if (!ttl.ok()) {
    AppendInteger(call.out, -2);  // No such key.
    return;
  }
  if (*ttl == 0) {
    AppendInteger(call.out, -1);  // No expiry set.
    return;
  }
  AppendInteger(call.out,
                static_cast<int64_t>((*ttl + kMicrosPerSecond - 1) /
                                     kMicrosPerSecond));
}

void CommandTable::Incr(CommandCall& call) {
  // Lock-free counter bump via the engine's CAS: read, add one, swap;
  // retry on interleaved writers.
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string current;
    Status s = db_->Get(call.args[1], &current);
    bool create = s.IsNotFound();
    int64_t value = 0;
    if (s.ok()) {
      if (!ParseArgInt(current, &value)) {
        AppendError(call.out,
                    "ERR value is not an integer or out of range");
        return;
      }
    } else if (!create) {
      AppendStatusError(call.out, s);
      return;
    }
    if (value == INT64_MAX) {
      AppendError(call.out, "ERR increment or decrement would overflow");
      return;
    }
    const std::string next = std::to_string(value + 1);
    {
      common::OptionalMutexLock order_lock(
        cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
      s = create ? db_->Cas(call.args[1], "", next, /*allow_create=*/true)
                 : db_->Cas(call.args[1], current, next);
      // Replicate the outcome, not the increment: replays are idempotent.
      if (s.ok() && cluster_ != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster_->RecordSet(call.args[1], next, 0);
      }
    }
    if (s.ok()) {
      AppendInteger(call.out, value + 1);
      return;
    }
    if (!s.IsAborted()) {
      AppendStatusError(call.out, s);
      return;
    }
  }
  AppendError(call.out, "ERR INCR retry budget exhausted under contention");
}

void CommandTable::HSet(CommandCall& call) {
  if (call.args.size() % 2 != 0) {
    AppendError(call.out, "ERR wrong number of arguments for 'hset' command");
    return;
  }
  cache::HashEngine* cache = db_->cache();
  int64_t added = 0;
  for (size_t i = 2; i < call.args.size(); i += 2) {
    std::string existing;
    const bool is_new =
        !cache->HGet(call.args[1], call.args[i], &existing).ok();
    Status s = cache->HSet(call.args[1], call.args[i], call.args[i + 1]);
    if (!s.ok()) {
      AppendStatusError(call.out, s);
      return;
    }
    if (is_new) ++added;
  }
  AppendInteger(call.out, added);
}

void CommandTable::HGet(CommandCall& call) {
  std::string value;
  Status s = db_->cache()->HGet(call.args[1], call.args[2], &value);
  if (s.ok()) {
    AppendBulk(call.out, value);
  } else if (s.IsNotFound()) {
    AppendNullBulk(call.out);
  } else {
    AppendStatusError(call.out, s);
  }
}

void CommandTable::LPush(CommandCall& call) {
  cache::HashEngine* cache = db_->cache();
  for (size_t i = 2; i < call.args.size(); ++i) {
    Status s = cache->LPush(call.args[1], call.args[i]);
    if (!s.ok()) {
      AppendStatusError(call.out, s);
      return;
    }
  }
  Result<uint64_t> len = cache->LLen(call.args[1]);
  AppendInteger(call.out, len.ok() ? static_cast<int64_t>(*len) : 0);
}

void CommandTable::LRange(CommandCall& call) {
  int64_t start = 0, stop = 0;
  if (!ParseArgInt(call.args[2], &start) || !ParseArgInt(call.args[3], &stop)) {
    AppendError(call.out, "ERR value is not an integer or out of range");
    return;
  }
  std::vector<std::string> elements;
  Status s = db_->cache()->LRange(call.args[1], start, stop, &elements);
  if (!s.ok() && !s.IsNotFound()) {
    AppendStatusError(call.out, s);
    return;
  }
  AppendArrayHeader(call.out, elements.size());
  for (const std::string& e : elements) AppendBulk(call.out, e);
}

void CommandTable::ZAdd(CommandCall& call) {
  if (call.args.size() % 2 != 0) {
    AppendError(call.out, "ERR syntax error");
    return;
  }
  cache::HashEngine* cache = db_->cache();
  int64_t added = 0;
  for (size_t i = 2; i < call.args.size(); i += 2) {
    double score = 0;
    if (!ParseArgDouble(call.args[i], &score)) {
      AppendError(call.out, "ERR value is not a valid float");
      return;
    }
    const bool is_new = !cache->ZScore(call.args[1], call.args[i + 1]).ok();
    Status s = cache->ZAdd(call.args[1], score, call.args[i + 1]);
    if (!s.ok()) {
      AppendStatusError(call.out, s);
      return;
    }
    if (is_new) ++added;
  }
  AppendInteger(call.out, added);
}

void CommandTable::ZRange(CommandCall& call) {
  int64_t start = 0, stop = 0;
  if (!ParseArgInt(call.args[2], &start) || !ParseArgInt(call.args[3], &stop)) {
    AppendError(call.out, "ERR value is not an integer or out of range");
    return;
  }
  bool with_scores = false;
  if (call.args.size() == 5) {
    if (!EqualsUpper(call.args[4], "WITHSCORES")) {
      AppendError(call.out, "ERR syntax error");
      return;
    }
    with_scores = true;
  }
  std::vector<std::pair<std::string, double>> members;
  Status s = db_->cache()->ZRange(call.args[1], start, stop, &members);
  if (!s.ok() && !s.IsNotFound()) {
    AppendStatusError(call.out, s);
    return;
  }
  AppendArrayHeader(call.out, members.size() * (with_scores ? 2 : 1));
  for (const auto& [member, score] : members) {
    AppendBulk(call.out, member);
    if (with_scores) AppendBulk(call.out, FormatDouble(score));
  }
}

void CommandTable::SlowLogCmd(CommandCall& call) {
  char sub[16];
  if (!UpperName(call.args[1], sub, 16)) {
    AppendError(call.out, "ERR unknown SLOWLOG subcommand");
    return;
  }
  if (strcmp(sub, "GET") == 0) {
    int64_t n = 10;
    if (call.args.size() == 3 &&
        (!ParseArgInt(call.args[2], &n) || n < 0)) {
      AppendError(call.out, "ERR value is not an integer or out of range");
      return;
    }
    std::vector<SlowLog::Entry> entries =
        slowlog_.Get(static_cast<size_t>(n));
    AppendArrayHeader(call.out, entries.size());
    for (const SlowLog::Entry& e : entries) {
      AppendArrayHeader(call.out, 4);
      AppendInteger(call.out, static_cast<int64_t>(e.id));
      AppendInteger(call.out, e.unix_seconds);
      AppendInteger(call.out, static_cast<int64_t>(e.duration_micros));
      AppendArrayHeader(call.out, e.args.size());
      for (const std::string& a : e.args) AppendBulk(call.out, a);
    }
    return;
  }
  if (strcmp(sub, "RESET") == 0) {
    slowlog_.Reset();
    AppendSimpleString(call.out, kOk);
    return;
  }
  if (strcmp(sub, "LEN") == 0) {
    AppendInteger(call.out, static_cast<int64_t>(slowlog_.Len()));
    return;
  }
  AppendError(call.out, "ERR unknown SLOWLOG subcommand, try GET|RESET|LEN");
}

void CommandTable::Latency(CommandCall& call) {
  char sub[16];
  if (!UpperName(call.args[1], sub, 16)) {
    AppendError(call.out, "ERR unknown LATENCY subcommand");
    return;
  }
  // An optional third arg names one command (e.g. "get").
  std::string only_key;
  if (call.args.size() == 3) {
    only_key = "cmd_";
    for (size_t i = 0; i < call.args[2].size(); ++i) {
      only_key.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(call.args[2][i]))));
    }
    only_key += "_latency_us";
  }
  std::vector<std::pair<std::string, metrics::LatencyHistogram*>> hists;
  for (auto& [key, hist] : registry_.Histograms()) {
    if (only_key.empty() || key == only_key) hists.emplace_back(key, hist);
  }
  if (strcmp(sub, "HISTOGRAM") == 0) {
    if (!only_key.empty() && hists.empty()) {
      AppendError(call.out, "ERR no latency histogram for that command");
      return;
    }
    AppendArrayHeader(call.out, hists.size() * 2);
    for (auto& [key, hist] : hists) {
      AppendBulk(call.out, key);
      AppendBulk(call.out, metrics::HistogramInfoValue(hist->Snapshot()));
    }
    return;
  }
  if (strcmp(sub, "RESET") == 0) {
    for (auto& [key, hist] : hists) {
      (void)key;
      hist->Reset();
    }
    AppendInteger(call.out, static_cast<int64_t>(hists.size()));
    return;
  }
  AppendError(call.out, "ERR unknown LATENCY subcommand, try HISTOGRAM|RESET");
}

void CommandTable::Scan(CommandCall& call) {
  int64_t cursor = 0;
  if (!ParseArgInt(call.args[1], &cursor) || cursor < 0) {
    AppendError(call.out, "ERR invalid cursor");
    return;
  }
  int64_t count = 10;
  if (call.args.size() > 2) {
    if (call.args.size() != 4 || !EqualsUpper(call.args[2], "COUNT") ||
        !ParseArgInt(call.args[3], &count) || count <= 0) {
      AppendError(call.out, "ERR syntax error");
      return;
    }
  }
  std::vector<std::string> keys;
  uint64_t next = db_->cache()->Scan(static_cast<uint64_t>(cursor),
                                     static_cast<size_t>(count), &keys);
  AppendArrayHeader(call.out, 2);
  AppendBulk(call.out, std::to_string(next));
  AppendArrayHeader(call.out, keys.size());
  for (const std::string& key : keys) AppendBulk(call.out, key);
}

void CommandTable::DbSize(CommandCall& call) {
  AppendInteger(call.out,
                static_cast<int64_t>(db_->cache()->GetUsage().keys));
}

void CommandTable::FlushAll(CommandCall& call) {
  if (db_->storage() != nullptr) {
    // A cache-only wipe would quietly resurrect from the storage tier on
    // the next miss; refuse rather than lie.
    AppendError(call.out,
                "ERR FLUSHALL wipes the cache tier only and this instance "
                "has a storage tier (write-through/write-back)");
    return;
  }
  common::OptionalMutexLock order_lock(
    cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
  db_->cache()->Clear();
  if (cluster_ != nullptr) cluster_->RecordFlush();
  AppendSimpleString(call.out, kOk);
}

void CommandTable::Cluster(CommandCall& call) {
  char sub[16];
  if (!UpperName(call.args[1], sub, 16)) {
    AppendError(call.out, "ERR unknown CLUSTER subcommand");
    return;
  }
  if (cluster_ == nullptr) {
    AppendError(call.out, "ERR This instance has cluster support disabled");
    return;
  }
  if (strcmp(sub, "EPOCH") == 0) {
    AppendInteger(call.out, static_cast<int64_t>(cluster_->epoch()));
  } else if (strcmp(sub, "MYID") == 0) {
    AppendBulk(call.out, cluster_->id());
  } else if (strcmp(sub, "NODES") == 0) {
    std::shared_ptr<const cluster_net::RoutingView> view = cluster_->routing();
    AppendBulk(call.out,
               view == nullptr ? std::string() : view->wire.Serialize());
  } else if (strcmp(sub, "SETSLOTS") == 0) {
    if (call.args.size() != 3) {
      AppendWrongArity(call.out, "CLUSTER");
      return;
    }
    Status s = cluster_->InstallRouting(call.args[2].ToString());
    if (s.ok()) {
      AppendSimpleString(call.out, kOk);
    } else {
      AppendStatusError(call.out, s);
    }
  } else {
    AppendError(call.out, "ERR unknown CLUSTER subcommand");
  }
}

void CommandTable::ReplicaOf(CommandCall& call) {
  if (cluster_ == nullptr) {
    AppendError(call.out, "ERR This instance has cluster support disabled");
    return;
  }
  if (EqualsUpper(call.args[1], "NO") &&
      EqualsUpper(call.args[2], "ONE")) {
    cluster_->StopReplication();  // Promotion: keep serving as a master.
    AppendSimpleString(call.out, kOk);
    return;
  }
  int64_t port = 0;
  if (!ParseArgInt(call.args[2], &port) || port <= 0 || port > 65535) {
    AppendError(call.out, "ERR invalid master port");
    return;
  }
  Status s = cluster_->StartReplicaOf(call.args[1].ToString(),
                                      static_cast<uint16_t>(port));
  if (s.ok()) {
    AppendSimpleString(call.out, kOk);
  } else {
    AppendStatusError(call.out, s);
  }
}

void CommandTable::ReplPull(CommandCall& call) {
  if (cluster_ == nullptr) {
    AppendError(call.out, "ERR This instance has cluster support disabled");
    return;
  }
  int64_t from = 0, max_ops = 0;
  if (!ParseArgInt(call.args[2], &from) || from <= 0 ||
      !ParseArgInt(call.args[3], &max_ops) || max_ops <= 0) {
    AppendError(call.out, "ERR invalid REPLPULL arguments");
    return;
  }
  cluster_net::OpLog* log = cluster_->oplog();
  cluster_->NoteReplicaAck(call.args[1].ToString(),
                           static_cast<uint64_t>(from) - 1);
  std::vector<cluster_net::ReplOp> ops;
  if (!log->Read(static_cast<uint64_t>(from), static_cast<size_t>(max_ops),
                 &ops)) {
    char msg[64];
    snprintf(msg, sizeof(msg), "REPLGAP %llu %llu",
             static_cast<unsigned long long>(log->min_seq()),
             static_cast<unsigned long long>(log->head_seq()));
    AppendError(call.out, msg);
    return;
  }
  AppendArrayHeader(call.out, ops.size() + 1);
  AppendInteger(call.out, static_cast<int64_t>(log->head_seq()));
  for (const cluster_net::ReplOp& op : ops) {
    AppendArrayHeader(call.out, 5);
    AppendInteger(call.out, static_cast<int64_t>(op.seq));
    switch (op.type) {
      case cluster_net::ReplOp::Type::kSet:
        AppendBulk(call.out, "SET");
        break;
      case cluster_net::ReplOp::Type::kDelete:
        AppendBulk(call.out, "DEL");
        break;
      case cluster_net::ReplOp::Type::kFlushAll:
        AppendBulk(call.out, "FLUSH");
        break;
      case cluster_net::ReplOp::Type::kExpire:
        AppendBulk(call.out, "EXPIRE");
        break;
    }
    AppendBulk(call.out, op.key);
    AppendBulk(call.out, op.value);
    AppendInteger(call.out, static_cast<int64_t>(op.ttl_micros));
  }
}

void CommandTable::ReplSnapshot(CommandCall& call) {
  if (cluster_ == nullptr) {
    AppendError(call.out, "ERR This instance has cluster support disabled");
    return;
  }
  int64_t cursor = 0, count = 0;
  if (!ParseArgInt(call.args[1], &cursor) || cursor < 0 ||
      !ParseArgInt(call.args[2], &count) || count <= 0) {
    AppendError(call.out, "ERR invalid REPLSNAPSHOT arguments");
    return;
  }
  std::vector<std::string> keys;
  uint64_t next = db_->cache()->Scan(static_cast<uint64_t>(cursor),
                                     static_cast<size_t>(count), &keys);
  // String values only: rich types are node-local in this reproduction.
  // Each entry ships (key, value, remaining-TTL) so a resynced replica
  // keeps the same expiry behavior as one that streamed incrementally.
  struct SnapshotEntry {
    std::string key;
    std::string value;
    uint64_t ttl_micros;
  };
  std::vector<SnapshotEntry> entries;
  entries.reserve(keys.size());
  for (std::string& key : keys) {
    std::string value;
    if (!db_->Get(key, &value).ok()) continue;
    Result<uint64_t> ttl = db_->cache()->Ttl(key);
    entries.push_back({std::move(key), std::move(value),
                       ttl.ok() ? *ttl : uint64_t{0}});
  }
  AppendArrayHeader(call.out, 2 + entries.size() * 3);
  AppendBulk(call.out, std::to_string(next));
  AppendInteger(call.out, static_cast<int64_t>(cluster_->oplog()->head_seq()));
  for (const SnapshotEntry& e : entries) {
    AppendBulk(call.out, e.key);
    AppendBulk(call.out, e.value);
    AppendInteger(call.out, static_cast<int64_t>(e.ttl_micros));
  }
}

// WAIT occupies its dispatch worker while polling. The executor's
// stall-aware scale-up activates a reserve thread so queued REPLPULLs
// (which advance the acks WAIT is watching) keep flowing — but kSingle
// mode pins max_threads to 1, so there WAIT can only report the acks
// already in; run cluster masters in multi/elastic mode.
void CommandTable::Wait(CommandCall& call) {
  int64_t num_replicas = 0, timeout_ms = 0;
  if (!ParseArgInt(call.args[1], &num_replicas) || num_replicas < 0 ||
      !ParseArgInt(call.args[2], &timeout_ms) || timeout_ms < 0) {
    AppendError(call.out, "ERR invalid WAIT arguments");
    return;
  }
  if (cluster_ == nullptr) {
    AppendInteger(call.out, 0);
    return;
  }
  metrics::ScopedPerfStage wait_stage(metrics::PerfContext::kReplicaWait);
  const uint64_t target = cluster_->oplog()->head_seq();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t acked = cluster_->CountReplicasAtLeast(target);
  while (acked < static_cast<size_t>(num_replicas) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    acked = cluster_->CountReplicasAtLeast(target);
  }
  AppendInteger(call.out, static_cast<int64_t>(acked));
}

}  // namespace server
}  // namespace tierbase
