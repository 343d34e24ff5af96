// bench_cluster: loopback throughput for the networked cluster
// (src/cluster_net/), comparing the three ways a key reaches a TierBase
// data node:
//
//   direct-1node  one server, one pipelined connection (PR-3 baseline)
//   smart-2node   coordinator + 2 masters, NetClusterClient batches
//                 scatter–gathered per node (batch == pipeline depth)
//   proxy-2node   the same 2-master cluster behind tierbase_proxy; the
//                 client pipelines to the proxy, which fans out
//
// The pipeline-depth sweep shows where each hop cost goes: at depth 1 the
// proxy pays two round trips per op, while at depth 32 its server-side
// scatter–gather amortizes the extra hop the same way the smart client
// does. Emits JSON (stdout or --json); the committed baseline lives in
// BENCH_cluster.json.
//
// Flags: --smoke (tiny counts, CI bit-rot guard), --json <path>,
//        --records N, --ops N.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_telemetry.h"
#include "cluster_net/cluster_client.h"
#include "cluster_net/coordinator_service.h"
#include "cluster_net/node_state.h"
#include "cluster_net/proxy.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/tierbase.h"
#include "server/client.h"
#include "server/server.h"

namespace tierbase {
namespace bench {
namespace {

struct Row {
  std::string mode;
  std::string op;
  int pipeline = 1;
  double kops = 0;
  // Data-node-observed latency for the row, gathered over every node the
  // mode touches via LATENCY HISTOGRAM. cnt sums node-side commands (a
  // coalesced train counts each of its commands); percentiles take the
  // per-node max — the straggler bound on the gather.
  ServerLatency server;
};

/// The node-side histograms a row's traffic can land on: raw pipelines,
/// and the smart client's and proxy's per-node sub-batches of single-key
/// GETs/SETs, coalesce into the get/set histograms; mget/mset catch
/// explicit multi-key commands.
std::vector<std::string> NodeCmds(const std::string& op) {
  return op == "get" ? std::vector<std::string>{"get", "mget"}
                     : std::vector<std::string>{"set", "mset"};
}

bool ResetNodeLatency(const std::vector<server::Client*>& admins,
                      const std::string& op) {
  for (server::Client* a : admins) {
    for (const std::string& cmd : NodeCmds(op)) {
      if (!ResetServerLatency(a, cmd)) return false;
    }
  }
  return true;
}

ServerLatency GatherNodeLatency(const std::vector<server::Client*>& admins,
                                const std::string& op) {
  ServerLatency out;
  out.ok = true;
  for (server::Client* a : admins) {
    for (const std::string& cmd : NodeCmds(op)) {
      ServerLatency one = FetchServerLatency(a, cmd);
      if (!one.ok) {
        out.ok = false;
        return out;
      }
      out.cnt += one.cnt;
      out.p50_us = std::max(out.p50_us, one.p50_us);
      out.p99_us = std::max(out.p99_us, one.p99_us);
      out.p999_us = std::max(out.p999_us, one.p999_us);
      out.max_us = std::max(out.max_us, one.max_us);
    }
  }
  return out;
}

std::string BenchKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%015llu", static_cast<unsigned long long>(i));
  return buf;
}

/// One TierBase data node with cluster state, ready to serve.
struct Node {
  std::unique_ptr<TierBase> db;
  std::unique_ptr<cluster_net::NodeClusterState> cluster;
  std::unique_ptr<server::Server> srv;
};

bool StartNode(const std::string& id, Node* node) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kCacheOnly;
  options.cache.shards = 4;
  auto db = TierBase::Open(options, nullptr);
  if (!db.ok()) return false;
  node->db = std::move(*db);
  cluster_net::NodeClusterState::Options cluster_options;
  cluster_options.id = id;
  node->cluster = std::make_unique<cluster_net::NodeClusterState>(
      node->db.get(), cluster_options);
  server::ServerOptions server_options;
  server_options.net.port = 0;
  server_options.executor.mode = threading::ThreadMode::kSingle;
  node->srv = std::make_unique<server::Server>(node->db.get(),
                                               server_options);
  node->srv->commands()->set_cluster(node->cluster.get());
  return node->srv->Start().ok();
}

/// Pipelined GET/SET stream over one raw connection (direct and proxy
/// modes); returns ops/sec, 0 on failure.
double DrivePipelined(uint16_t port, const std::string& op, uint64_t records,
                      uint64_t ops, int pipeline) {
  server::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) return 0;
  Random rng(42);
  const std::string value(100, 'v');
  server::RespValue reply;
  uint64_t remaining = ops;
  const uint64_t start = Clock::Real()->NowMicros();
  while (remaining > 0) {
    const int batch = static_cast<int>(
        std::min<uint64_t>(remaining, static_cast<uint64_t>(pipeline)));
    for (int i = 0; i < batch; ++i) {
      std::string key = BenchKey(rng.Uniform(records));
      if (op == "get") {
        client.Append({"GET", key});
      } else {
        client.Append({"SET", key, value});
      }
    }
    if (!client.Flush().ok()) return 0;
    for (int i = 0; i < batch; ++i) {
      if (!client.ReadReply(&reply).ok() || reply.IsError()) return 0;
    }
    remaining -= static_cast<uint64_t>(batch);
  }
  const uint64_t micros = Clock::Real()->NowMicros() - start;
  return micros == 0 ? 0 : static_cast<double>(ops) * 1e6 / micros;
}

/// Batched stream through the smart client (batch == pipeline depth).
double DriveSmart(cluster_net::NetClusterClient* client,
                  const std::string& op, uint64_t records, uint64_t ops,
                  int pipeline) {
  Random rng(42);
  const std::string value(100, 'v');
  uint64_t remaining = ops;
  const uint64_t start = Clock::Real()->NowMicros();
  std::vector<std::string> key_storage;
  std::vector<Slice> keys, values;
  std::vector<std::string> out_values;
  std::vector<Status> statuses;
  while (remaining > 0) {
    const size_t batch =
        std::min<uint64_t>(remaining, static_cast<uint64_t>(pipeline));
    key_storage.clear();
    keys.clear();
    values.clear();
    for (size_t i = 0; i < batch; ++i) {
      key_storage.push_back(BenchKey(rng.Uniform(records)));
    }
    for (const std::string& k : key_storage) {
      keys.emplace_back(k);
      values.emplace_back(value);
    }
    if (op == "get") {
      client->MultiGet(keys, &out_values, &statuses);
    } else {
      client->MultiSet(keys, values, &statuses);
    }
    for (const Status& s : statuses) {
      if (!s.ok() && !s.IsNotFound()) return 0;
    }
    remaining -= batch;
  }
  const uint64_t micros = Clock::Real()->NowMicros() - start;
  return micros == 0 ? 0 : static_cast<double>(ops) * 1e6 / micros;
}

bool Preload(uint16_t port, uint64_t records) {
  server::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  const std::string value(100, 'v');
  server::RespValue reply;
  constexpr uint64_t kLoadBatch = 64;
  for (uint64_t i = 0; i < records; i += kLoadBatch) {
    const uint64_t end = std::min(records, i + kLoadBatch);
    for (uint64_t j = i; j < end; ++j) {
      client.Append({"SET", BenchKey(j), value});
    }
    if (!client.Flush().ok()) return false;
    for (uint64_t j = i; j < end; ++j) {
      if (!client.ReadReply(&reply).ok() || reply.IsError()) return false;
    }
  }
  return true;
}

void EmitJson(FILE* f, uint64_t records, uint64_t ops,
              const std::vector<Row>& rows) {
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"cluster\",\n");
  fprintf(f, "  \"transport\": \"tcp-loopback\",\n");
  fprintf(f, "  \"value_bytes\": 100,\n");
  fprintf(f, "  \"records\": %" PRIu64 ",\n", records);
  fprintf(f, "  \"ops_per_row\": %" PRIu64 ",\n", ops);
  fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    fprintf(f,
            "    {\"mode\": \"%s\", \"op\": \"%s\", \"pipeline\": %d, "
            "\"kops\": %.1f, \"srv_cnt\": %" PRIu64
            ", \"srv_p50_us\": %" PRIu64 ", \"srv_p99_us\": %" PRIu64
            "}%s\n",
            r.mode.c_str(), r.op.c_str(), r.pipeline, r.kops, r.server.cnt,
            r.server.p50_us, r.server.p99_us,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  uint64_t records = 50000;
  uint64_t ops = 200000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      records = 2000;
      ops = 4000;
    } else if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = strtoull(argv[++i], nullptr, 10);
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--json path] [--records N] [--ops N]\n",
              argv[0]);
      return 2;
    }
  }

  // Topology: a coordinator, two masters, and a standalone single node.
  cluster_net::CoordinatorService::Options coordinator_options;
  coordinator_options.port = 0;
  cluster_net::CoordinatorService coordinator(coordinator_options);
  if (!coordinator.Start().ok()) {
    fprintf(stderr, "coordinator start failed\n");
    return 1;
  }
  Node solo, n1, n2;
  if (!StartNode("solo", &solo) || !StartNode("n1", &n1) ||
      !StartNode("n2", &n2)) {
    fprintf(stderr, "node start failed\n");
    return 1;
  }
  if (!coordinator.AddNode("n1", "127.0.0.1", n1.srv->port(), "").ok() ||
      !coordinator.AddNode("n2", "127.0.0.1", n2.srv->port(), "").ok()) {
    fprintf(stderr, "registration failed\n");
    return 1;
  }

  cluster_net::NetClusterClient::Options smart_options;
  smart_options.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator.port()));
  auto smart = cluster_net::NetClusterClient::Connect(smart_options);
  if (!smart.ok()) {
    fprintf(stderr, "smart client: %s\n",
            smart.status().ToString().c_str());
    return 1;
  }

  cluster_net::ClusterProxy::Options proxy_options;
  proxy_options.port = 0;
  proxy_options.backend = smart_options;
  cluster_net::ClusterProxy proxy(proxy_options);
  if (!proxy.Start().ok()) {
    fprintf(stderr, "proxy start failed\n");
    return 1;
  }

  // Preload: the solo node directly, the cluster through the smart client
  // (so each shard holds its own share).
  if (!Preload(solo.srv->port(), records)) {
    fprintf(stderr, "solo preload failed\n");
    return 1;
  }
  if (DriveSmart(smart->get(), "set", records, records, 64) == 0) {
    fprintf(stderr, "cluster preload failed\n");
    return 1;
  }

  // Admin connections for node-side telemetry (LATENCY RESET/HISTOGRAM
  // around each row).
  server::Client solo_admin, n1_admin, n2_admin;
  if (!solo_admin.Connect("127.0.0.1", solo.srv->port()).ok() ||
      !n1_admin.Connect("127.0.0.1", n1.srv->port()).ok() ||
      !n2_admin.Connect("127.0.0.1", n2.srv->port()).ok()) {
    fprintf(stderr, "admin connect failed\n");
    return 1;
  }
  const std::vector<server::Client*> solo_admins = {&solo_admin};
  const std::vector<server::Client*> cluster_admins = {&n1_admin, &n2_admin};

  std::vector<Row> rows;
  auto run = [&](const std::string& mode, const std::string& op,
                 int pipeline, double kops, const ServerLatency& server) {
    Row row;
    row.mode = mode;
    row.op = op;
    row.pipeline = pipeline;
    row.kops = kops;
    row.server = server;
    rows.push_back(row);
    printf("%-13s %-4s pipeline=%-3d %10.1f kops  srv(cnt=%" PRIu64
           " p50=%" PRIu64 "us p99=%" PRIu64 "us)\n",
           mode.c_str(), op.c_str(), pipeline, kops, server.cnt,
           server.p50_us, server.p99_us);
    fflush(stdout);
  };

  for (const char* op : {"get", "set"}) {
    for (int pipeline : {1, 8, 32}) {
      const uint64_t row_ops = pipeline == 1 ? ops / 8 : ops;

      if (!ResetNodeLatency(solo_admins, op)) {
        fprintf(stderr, "LATENCY RESET failed\n");
        return 1;
      }
      double kops =
          DrivePipelined(solo.srv->port(), op, records, row_ops, pipeline) /
          1e3;
      if (kops == 0) {
        fprintf(stderr, "direct run failed\n");
        return 1;
      }
      ServerLatency server = GatherNodeLatency(solo_admins, op);
      if (!server.ok) {
        fprintf(stderr, "LATENCY HISTOGRAM failed\n");
        return 1;
      }
      run("direct-1node", op, pipeline, kops, server);

      if (!ResetNodeLatency(cluster_admins, op)) {
        fprintf(stderr, "LATENCY RESET failed\n");
        return 1;
      }
      kops = DriveSmart(smart->get(), op, records, row_ops, pipeline) / 1e3;
      if (kops == 0) {
        fprintf(stderr, "smart run failed\n");
        return 1;
      }
      server = GatherNodeLatency(cluster_admins, op);
      if (!server.ok) {
        fprintf(stderr, "LATENCY HISTOGRAM failed\n");
        return 1;
      }
      run("smart-2node", op, pipeline, kops, server);

      if (!ResetNodeLatency(cluster_admins, op)) {
        fprintf(stderr, "LATENCY RESET failed\n");
        return 1;
      }
      kops = DrivePipelined(proxy.port(), op, records, row_ops, pipeline) /
             1e3;
      if (kops == 0) {
        fprintf(stderr, "proxy run failed\n");
        return 1;
      }
      server = GatherNodeLatency(cluster_admins, op);
      if (!server.ok) {
        fprintf(stderr, "LATENCY HISTOGRAM failed\n");
        return 1;
      }
      run("proxy-2node", op, pipeline, kops, server);
    }
  }

  proxy.Stop();
  n1.srv->Stop();
  n2.srv->Stop();
  solo.srv->Stop();
  coordinator.Stop();

  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    EmitJson(f, records, ops, rows);
    fclose(f);
    printf("JSON written to %s\n", json_path.c_str());
  } else {
    EmitJson(stdout, records, ops, rows);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tierbase

int main(int argc, char** argv) { return tierbase::bench::Main(argc, argv); }
