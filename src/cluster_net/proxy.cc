#include "cluster_net/proxy.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/clock.h"
#include "common/hash.h"
#include "server/command.h"
#include "server/resp.h"

namespace tierbase::cluster_net {

namespace {

/// How a client command's sub-command replies fold back into its reply.
enum class Merge : uint8_t {
  kRelay,  // One sub-command; its reply verbatim.
  kArray,  // MGET: an array of the GET replies.
  kOk,     // MSET: +OK once every SET succeeded.
  kSum,    // DEL, EXISTS: the summed integer replies.
};

/// One client command: its sub-commands are [first, first + count) of the
/// segment.
struct SegmentEntry {
  Merge merge;
  size_t first;
  size_t count;
};

/// Folds one client command's sub-command replies into its reply.
void AppendMerged(const SegmentEntry& e,
                  const std::vector<server::RespValue>& replies,
                  const std::vector<Status>& statuses, std::string* out) {
  // A sub-command that failed, or that drew an error other than the one
  // MGET reads as nil, fails the whole command: a nil or ":N" must never
  // masquerade as "the unreachable keys did not exist".
  for (size_t i = e.first; i < e.first + e.count; ++i) {
    if (!statuses[i].ok()) {
      server::AppendStatusError(out, statuses[i]);
      return;
    }
    const server::RespValue& r = replies[i];
    // MGET reads a wrong-type key as nil, like the node's own MGET.
    const bool nil = e.merge == Merge::kArray && r.IsError() &&
                     r.str.rfind("WRONGTYPE", 0) == 0;
    if (r.IsError() && !nil) {
      server::AppendValue(out, r);
      return;
    }
  }
  switch (e.merge) {
    case Merge::kRelay:
      server::AppendValue(out, replies[e.first]);
      return;
    case Merge::kOk:
      server::AppendSimpleString(out, "OK");
      return;
    case Merge::kArray:
      server::AppendArrayHeader(out, e.count);
      for (size_t i = e.first; i < e.first + e.count; ++i) {
        if (replies[i].type == server::RespValue::Type::kBulkString) {
          server::AppendBulk(out, replies[i].str);
        } else {
          server::AppendNullBulk(out);  // Missing or wrong-type.
        }
      }
      return;
    case Merge::kSum: {
      int64_t sum = 0;
      for (size_t i = e.first; i < e.first + e.count; ++i) {
        sum += replies[i].integer;
      }
      server::AppendInteger(out, sum);
      return;
    }
  }
}

}  // namespace

/// The open segment of one client batch: every keyed command since the
/// last locally answered one, as single-key sub-commands.
struct ClusterProxy::Segment {
  std::vector<std::vector<Slice>> cmds;
  std::vector<Slice> keys;            // keys[i] routes cmds[i].
  std::vector<SegmentEntry> entries;  // One per client command.
};

ClusterProxy::ClusterProxy(Options options) : options_(std::move(options)) {
  if (options_.analytics.enabled) {
    analytics::WorkloadAnalyticsOptions aopts = options_.analytics;
    // No cache engine to inherit a shard count from: a few trackers keep
    // snapshot-time lock holds short against the routed hot path.
    if (aopts.shards == 0) aopts.shards = 4;
    analytics_ = std::make_unique<analytics::WorkloadAnalytics>(aopts);
  }
  // The node's keyed commands, forwarded (no handler: ExecuteBatch routes
  // every admissible one into a segment). First, as the hot lookups.
  for (const server::CommandTable::Entry& e :
       server::CommandTable::DataCommands()) {
    if (e.spec.keys.first != 0) Add(e.spec, nullptr);
  }
  RegisterSharedCommands(&registry_, analytics_.get(), nullptr);
  get_index_ = Find("GET");
  set_index_ = Find("SET");
  mget_index_ = Find("MGET");
  RegisterInstruments();
}

void ClusterProxy::RecordRead(const Slice& key) {
  if (analytics_ != nullptr) {
    analytics_->RecordRead(key, Hash64(key));
  }
}

void ClusterProxy::RecordWrite(const Slice& key, size_t value_bytes) {
  if (analytics_ != nullptr) {
    // SET's EX/PX options are relayed, not parsed: shape histograms carry
    // value/key sizes only.
    analytics_->RecordWrite(key, Hash64(key), value_bytes, 0);
  }
}

void ClusterProxy::RegisterInstruments() {
  // Callbacks null-check backend_/loop_: INFO can run (in tests) before
  // Start() wires them.
  registry_.AddText("Proxy", "proxy_port",
                    [this] { return std::to_string(port()); });
  commands_ = registry_.AddCounter("Proxy", "proxy_commands",
                                   "Commands executed by the proxy");
  batches_ = registry_.AddCounter("Proxy", "proxy_batches",
                                  "Pipelined batches executed");
  coalesced_ = registry_.AddCounter(
      "Proxy", "proxy_coalesced_commands",
      "Keyed commands served through pipelined segments");
  registry_.AddCallback(
      "Proxy", "connected_clients", "Connections currently open",
      metrics::MetricType::kGauge,
      [this] { return loop_ != nullptr ? loop_->connections_active() : 0; });
  registry_.AddText("Proxy", "io_backend", [] { return "epoll"; });
  registry_.AddCallback(
      "Proxy", "io_threads", "Event-loop shards serving clients",
      metrics::MetricType::kGauge, [this] {
        return loop_ != nullptr ? static_cast<uint64_t>(loop_->io_threads())
                                : static_cast<uint64_t>(options_.io_threads);
      });
  registry_.AddCallback(
      "Proxy", "loop_wakeups", "Wakeup-channel fires across all loops",
      metrics::MetricType::kCounter,
      [this] { return loop_ != nullptr ? loop_->loop_wakeups() : 0; });
  // Per-loop ownership/accept-balance breakdown (dynamic key set).
  registry_.AddBlock("Proxy", [this](std::string* out) {
    if (loop_ == nullptr) return;
    for (size_t i = 0; i < loop_->shard_count(); ++i) {
      const server::IoShard* shard = loop_->shard(i);
      const std::string sfx = "_loop" + std::to_string(i);
      out->append("connected_clients" + sfx + ":" +
                  std::to_string(shard->connections_active()) + "\r\n");
      out->append("accepts" + sfx + ":" +
                  std::to_string(shard->connections_assigned()) + "\r\n");
      out->append("loop_wakeups" + sfx + ":" +
                  std::to_string(shard->wakeups()) + "\r\n");
    }
  });
  fanout_hist_ = registry_.AddHistogram(
      "Proxy", "proxy_fanout_latency_us",
      "Scatter-gather train latency (all nodes shipped and gathered), "
      "microseconds");

  // One backend-stats snapshot per render; the callbacks below read it.
  registry_.AddPreRender([this] {
    info_stats_ = backend_ != nullptr ? backend_->GetStats()
                                      : NetClusterClient::Stats();
  });
  registry_.AddCallback(
      "Cluster", "cluster_epoch", "Routing snapshot epoch",
      metrics::MetricType::kGauge,
      [this] { return backend_ != nullptr ? backend_->epoch() : 0; });
  registry_.AddCallback("Cluster", "route_refreshes",
                        "Routing snapshot refreshes",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.route_refreshes; });
  registry_.AddCallback("Cluster", "moved_redirects",
                        "-MOVED replies observed",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.moved_redirects; });
  registry_.AddCallback("Cluster", "failures_reported",
                        "Node failures reported to the coordinator",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.failures_reported; });
  registry_.AddCallback("Cluster", "proxy_upstream_commands",
                        "Single-key commands shipped to data nodes",
                        metrics::MetricType::kCounter, [this] {
                          uint64_t total = 0;
                          for (const auto& [node, n] :
                               info_stats_.node_commands) {
                            total += n;
                          }
                          return total;
                        });
  // Per-node keys are dynamic (they follow the routing snapshot), so they
  // render as an INFO-only block.
  registry_.AddBlock("Cluster", [this](std::string* out) {
    char line[160];
    for (const auto& [node, batches] : info_stats_.node_batches) {
      snprintf(line, sizeof(line), "routed_batches_%s:%" PRIu64 "\r\n",
               node.c_str(), batches);
      *out += line;
    }
    for (const auto& [node, commands] : info_stats_.node_commands) {
      snprintf(line, sizeof(line), "routed_commands_%s:%" PRIu64 "\r\n",
               node.c_str(), commands);
      *out += line;
    }
    for (const auto& [node, micros] : info_stats_.node_fanout_micros) {
      snprintf(line, sizeof(line), "fanout_micros_%s:%" PRIu64 "\r\n",
               node.c_str(), micros);
      *out += line;
    }
  });

  registry_.AddCallback("Robustness", "backoff_waits",
                        "Backoff sleeps between failed attempts",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.backoff_waits; });
  registry_.AddCallback("Robustness", "breaker_trips",
                        "Circuit breaker open transitions",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.breaker_trips; });
  registry_.AddCallback("Robustness", "breaker_fast_fails",
                        "Operations rejected by an open breaker",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.breaker_fast_fails; });
  registry_.AddBlock("Robustness", [this](std::string* out) {
    char line[160];
    for (const auto& [node, state] : info_stats_.breaker_states) {
      snprintf(line, sizeof(line), "breaker_state_%s:%s\r\n", node.c_str(),
               state.c_str());
      *out += line;
    }
  });

  // # Workload: the cluster-wide aggregate view — every routed string
  // access feeds the proxy's own observatory. Shared registration with the
  // server's per-node section.
  analytics::RegisterWorkloadInstruments(&registry_, analytics_.get());
}

ClusterProxy::~ClusterProxy() { Stop(); }

Status ClusterProxy::Start() {
  if (running_) return Status::InvalidArgument("proxy already running");
  auto backend = NetClusterClient::Connect(options_.backend);
  if (!backend.ok()) return backend.status();
  backend_ = std::move(*backend);
  executor_ =
      std::make_unique<threading::ElasticExecutor>(options_.executor);
  server::EventLoopOptions net;
  net.host = options_.host;
  net.port = options_.port;
  net.io_threads = options_.io_threads;
  net.so_reuseport = options_.so_reuseport;
  net.backlog = options_.tcp_backlog;
  loop_ = std::make_unique<server::EventLoop>(
      net, [this](std::shared_ptr<server::Connection> conn,
                  server::CommandBatch batch) {
        auto shared = std::make_shared<server::CommandBatch>(std::move(batch));
        executor_->Submit([this, conn = std::move(conn), shared] {
          std::string out;
          bool close_connection = false;
          bool shutdown_server = false;
          ExecuteBatch(shared->cmds, &out, &close_connection,
                       &shutdown_server);
          conn->CompleteBatch(std::move(out), close_connection,
                              shutdown_server);
        });
      });
  Status s = loop_->Listen();
  if (!s.ok()) {
    loop_.reset();
    executor_->Shutdown();
    executor_.reset();
    backend_.reset();
    return s;
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  running_ = true;
  return Status::OK();
}

void ClusterProxy::Stop() {
  if (!running_) return;
  loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  executor_->Shutdown();
  running_ = false;
}

void ClusterProxy::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void ClusterProxy::ExecuteBatch(const std::vector<server::RespCommand>& cmds,
                                std::string* out, bool* close_connection,
                                bool* shutdown_server) {
  batches_->Inc();
  commands_->Inc(cmds.size());
  Segment seg;
  seg.cmds.reserve(cmds.size());
  seg.keys.reserve(cmds.size());
  seg.entries.reserve(cmds.size());
  for (const server::RespCommand& cmd : cmds) {
    const std::vector<Slice>& args = cmd.args;
    const int index = args.empty() ? -1 : Find(args[0]);
    if (index < 0 || spec(index).keys.first == 0 ||
        !spec(index).ArityOk(args.size())) {
      // Answered here: the open segment's replies go first.
      SendSegment(&seg, out);
      if (index < 0) {
        // Not a command the proxy serves, such as a keyless data command:
        // answering with one arbitrary node's view would be wrong.
        std::string msg = "ERR '";
        if (!args.empty()) {
          msg.append(args[0].data(), std::min<size_t>(args[0].size(), 64));
        }
        msg += "' is not supported through the proxy";
        server::AppendError(out, msg);
        continue;
      }
      server::CommandCall call{args, out};
      Execute(index, call);
      *close_connection |= call.close_connection;
      *shutdown_server |= call.shutdown_server;
      continue;
    }
    const server::KeySpec& keys = spec(index).keys;
    SegmentEntry entry{Merge::kRelay, seg.cmds.size(), 0};
    if (keys.first == keys.last) {  // One key: relayed as is.
      if (index == get_index_) RecordRead(args[1]);
      if (index == set_index_) RecordWrite(args[1], args[2].size());
      seg.cmds.push_back(args);
      seg.keys.push_back(args[keys.first]);
    } else if (keys.step == 2) {  // MSET: one SET per key/value pair.
      entry.merge = Merge::kOk;
      for (size_t i = 1; i < args.size(); i += 2) {
        RecordWrite(args[i], args[i + 1].size());
        seg.cmds.push_back({"SET", args[i], args[i + 1]});
        seg.keys.push_back(args[i]);
      }
    } else {  // MGET, DEL, EXISTS: one sub-command per key.
      const bool mget = index == mget_index_;
      entry.merge = mget ? Merge::kArray : Merge::kSum;
      for (size_t i = 1; i < args.size(); ++i) {
        if (mget) RecordRead(args[i]);
        seg.cmds.push_back({mget ? Slice("GET") : args[0], args[i]});
        seg.keys.push_back(args[i]);
      }
    }
    entry.count = seg.cmds.size() - entry.first;
    seg.entries.push_back(entry);
  }
  SendSegment(&seg, out);
}

void ClusterProxy::SendSegment(Segment* seg, std::string* out) {
  if (seg->entries.empty()) return;
  std::vector<server::RespValue> replies;
  std::vector<Status> statuses;
  const uint64_t t0 = Clock::Real()->NowMicros();
  backend_->ForwardBatch(seg->cmds, seg->keys, &replies, &statuses);
  fanout_hist_->Record(Clock::Real()->NowMicros() - t0);
  coalesced_->Inc(seg->entries.size());
  for (const SegmentEntry& e : seg->entries) {
    AppendMerged(e, replies, statuses, out);
  }
  seg->cmds.clear();
  seg->keys.clear();
  seg->entries.clear();
}

}  // namespace tierbase::cluster_net
