// The benchmark's workloads and the deployment each one runs against.
// BENCHMARK.json and README.md describe the same table; this is the one
// place the numbers live.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// Every workload runs over this many client connections, and every
// server runs one executor thread (--threads single), so that generator,
// reactors and executor fit in four CPUs.
constexpr int kConns = 4;

struct Workload {
  std::string name;
  bool open_loop = false;
  bool proxy = false;            // tierbase_proxy over two data nodes.
  std::string policy;            // tierbase_server --policy.
  int io_threads = 2;
  uint64_t memory_budget = 0;    // --memory-budget; 0 = unlimited.
  StreamSpec stream;
  int depth = 1;                 // Closed loop: commands per flush.
  double fixed_kops = 0;         // Open loop: rate the latencies are read at.
  std::vector<double> ladder_kops;  // Open loop: rungs, ascending.
  double limit_us = 0;           // Latency limit on GET and SET p99.
  int setups = 3;                // Fresh deployments per run (median).
};

// Looks a workload up by name; exits on an unknown name.
const Workload& FindWorkload(const std::string& name);

struct Binaries {
  std::string server, proxy, coordinator;
};

// The server-side processes of one workload, started and preloaded.
class Deployment {
 public:
  Deployment(const Workload& w, const Binaries& bin, const std::string& dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  int port() const { return port_; }  // Where clients connect.
  uint64_t CpuMicros() const;
  uint64_t RssBytes() const;
  uint64_t DiskBytes() const;
  // Data-node ports (the proxy workload's nodes; else the server).
  const std::vector<int>& node_ports() const { return node_ports_; }

 private:
  pid_t StartServer(const std::string& tag, std::vector<std::string> extra,
                    int* port);

  const Workload& w_;
  Binaries bin_;
  std::string dir_;
  std::vector<pid_t> pids_;
  std::vector<int> node_ports_;
  std::vector<std::string> data_dirs_;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
