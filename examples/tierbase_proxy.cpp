// tierbase_proxy: RESP proxy in front of a TierBase cluster. Naive clients
// (redis-cli, the YCSB runner's --remote mode) connect here as if it were
// one server; the proxy routes per key and scatter–gathers pipelined
// batches across the data nodes.
//
//   ./build/tierbase_proxy --coordinator 127.0.0.1:7000 --port 7100
//   redis-cli -p 7100 set k v
//   ./build/ycsb_runner --workload A --remote 127.0.0.1:7100
//
// Flags:
//   --coordinator SPEC[,SPEC]  coordinator endpoint(s) (required)
//   --host H                   bind address (default 127.0.0.1)
//   --port N                   listen port; 0 = ephemeral (default 7100)
//   --port-file PATH           write the bound port once listening
//   --max-threads N            executor thread cap (default 4)
//   --io-threads N             event-loop shards for the client side
//                              (default 1); same multi-reactor core as the
//                              server — see README "Serving over the network"
//   --so-reuseport             per-loop SO_REUSEPORT listeners
//   --tcp-backlog N            listen(2) backlog (default 128)
//
// The process exits on SHUTDOWN (or SIGINT/SIGTERM); data nodes are
// unaffected.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "cluster_net/proxy.h"
#include "common/env.h"
#include "server/command_registry.h"

using namespace tierbase;

namespace {

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

cluster_net::ClusterProxy* g_proxy = nullptr;

void HandleSignal(int) {
  if (g_proxy != nullptr) g_proxy->RequestStop();
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --coordinator HOST:PORT[,HOST:PORT...]\n"
          "          [--host H] [--port N] [--port-file PATH]\n"
          "          [--max-threads N] [--io-threads N] [--so-reuseport]\n"
          "          [--tcp-backlog N] [--no-analytics]\n"
          "          [--analytics-sample-rate N]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cluster_net::ClusterProxy::Options options;
  options.port = 7100;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    // Strict decimal in [lo, hi]; anything else is a usage error.
    auto next_int = [&](const char* flag, int64_t lo, int64_t hi) {
      int64_t v = 0;
      if (!server::ParseArgInt(next(flag), &v) || v < lo || v > hi) {
        fprintf(stderr, "%s needs an integer in [%lld, %lld]\n", flag,
                static_cast<long long>(lo), static_cast<long long>(hi));
        exit(2);
      }
      return v;
    };
    if (strcmp(argv[i], "--coordinator") == 0) {
      std::stringstream specs(next("--coordinator"));
      std::string spec;
      while (std::getline(specs, spec, ',')) {
        if (!spec.empty()) options.backend.coordinators.push_back(spec);
      }
    } else if (strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<uint16_t>(next_int("--port", 0, 65535));
    } else if (strcmp(argv[i], "--port-file") == 0) {
      port_file = next("--port-file");
    } else if (strcmp(argv[i], "--max-threads") == 0) {
      options.executor.max_threads =
          static_cast<int>(next_int("--max-threads", 1, 1024));
    } else if (strcmp(argv[i], "--io-threads") == 0) {
      options.io_threads = static_cast<int>(next_int("--io-threads", 1, 1024));
    } else if (strcmp(argv[i], "--so-reuseport") == 0) {
      options.so_reuseport = true;
    } else if (strcmp(argv[i], "--tcp-backlog") == 0) {
      options.tcp_backlog =
          static_cast<int>(next_int("--tcp-backlog", 1, kMaxInt));
    } else if (strcmp(argv[i], "--no-analytics") == 0) {
      options.analytics.enabled = false;
    } else if (strcmp(argv[i], "--analytics-sample-rate") == 0) {
      options.analytics.mrc_sample_rate = static_cast<uint32_t>(
          next_int("--analytics-sample-rate", 1, kMaxU32));
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.backend.coordinators.empty()) return Usage(argv[0]);

  cluster_net::ClusterProxy proxy(options);
  Status s = proxy.Start();
  if (!s.ok()) {
    fprintf(stderr, "proxy: %s\n", s.ToString().c_str());
    return 1;
  }
  g_proxy = &proxy;
  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  printf("tierbase_proxy: routing epoch %llu, listening on %s:%u\n",
         static_cast<unsigned long long>(proxy.backend()->epoch()),
         options.host.c_str(), static_cast<unsigned>(proxy.port()));
  fflush(stdout);
  if (!port_file.empty()) {
    Status ws = env::WriteStringToFileSync(
        port_file, std::to_string(proxy.port()) + "\n");
    if (!ws.ok()) {
      fprintf(stderr, "port file: %s\n", ws.ToString().c_str());
      proxy.Stop();
      return 1;
    }
  }

  proxy.Wait();
  proxy.Stop();
  printf("tierbase_proxy: shut down cleanly\n");
  return 0;
}
