#include "workloads.h"

#include <sys/stat.h>

#include "procs.h"

namespace perfbench {

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // Depth-1 requests in DRAM: the fixed per-request costs (reactor,
  // executor hop, loopback) are nearly the whole round trip.
  Workload d1;
  d1.name = "cache-d1";
  d1.open_loop = true;
  d1.policy = "cache-only";
  d1.stream = {1'000'000, 0.99, 0.95};
  d1.fixed_kops = 40;
  d1.ladder_kops = {60, 70, 80, 90, 100, 110, 120, 130, 140};
  d1.limit_us = 1000;
  d1.setups = 7;  // Its ladder is the noisiest result: more set-ups.
  all.push_back(d1);

  // Pipelined trains over write-through: the batch path and LSM writes.
  Workload wt;
  wt.name = "wt-p32";
  wt.policy = "write-through";
  wt.stream = {500'000, 0, 0.5};
  wt.depth = 32;
  wt.limit_us = 20'000;
  wt.setups = 5;  // Its p50 follows the LSM state each set-up inherits.
  all.push_back(wt);

  // Data ~4x the cache budget: misses, eviction and write-back flushes.
  // A closed loop: as an open loop its flat ~2 ms p99 tail sat on any
  // useful limit and host stalls made the generator late.
  Workload wb;
  wb.name = "wb-overflow";
  wb.policy = "write-back";
  wb.stream = {200'000, 0.99, 0.5};
  wb.memory_budget = 8u << 20;
  wb.depth = 8;
  wb.limit_us = 50'000;
  wb.setups = 5;  // Its rate moves with the eviction and LSM state.
  all.push_back(wb);

  // The only workload through cluster_net. The proxy forwards one command
  // at a time, so its rate follows wake-up latency, which the host moves
  // from set-up to set-up: five set-ups, and a gate ten times its p50
  // (its p99 reached 20 ms in quiet set-ups on a noisy host).
  Workload px;
  px.name = "proxy-p32";
  px.proxy = true;
  px.policy = "cache-only";
  px.io_threads = 1;
  px.stream = {500'000, 0, 0.5};
  px.depth = 32;
  px.limit_us = 50'000;
  px.setups = 5;
  all.push_back(px);
  return all;
}

}  // namespace

const Workload& FindWorkload(const std::string& name) {
  static const std::vector<Workload> all = MakeWorkloads();
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  Die("unknown workload '" + name + "'");
}

Deployment::Deployment(const Workload& w, const Binaries& bin,
                       const std::string& dir)
    : w_(w), bin_(bin), dir_(dir) {
  mkdir(dir_.c_str(), 0755);
  if (!w.proxy) {
    int port = 0;
    StartServer("server", {}, &port);
    node_ports_.push_back(port);
    port_ = port;
    return;
  }
  int coord_port = 0;
  const std::string coord_file = dir_ + "/coordinator.port";
  pids_.push_back(Spawn({bin_.coordinator, "--port", "0", "--port-file",
                         coord_file},
                        coord_file + ".log"));
  coord_port = WaitPortFile(coord_file, pids_.back(), 10);
  SyncClient coord(coord_port);
  for (const char* id : {"n1", "n2"}) {
    int port = 0;
    StartServer(id, {"--cluster-id", id}, &port);
    node_ports_.push_back(port);
    const Reply& r = coord.Call({"CLUSTER", "ADDNODE", id, "127.0.0.1",
                                 std::to_string(port)});
    if (r.type != Reply::kSimple) Die("CLUSTER ADDNODE failed");
  }
  const std::string proxy_file = dir_ + "/proxy.port";
  pids_.push_back(Spawn({bin_.proxy, "--coordinator",
                         "127.0.0.1:" + std::to_string(coord_port), "--port",
                         "0", "--port-file", proxy_file, "--io-threads", "1",
                         "--max-threads", "1"},
                        proxy_file + ".log"));
  port_ = WaitPortFile(proxy_file, pids_.back(), 10);
}

pid_t Deployment::StartServer(const std::string& tag,
                              std::vector<std::string> extra, int* port) {
  const std::string port_file = dir_ + "/" + tag + ".port";
  std::vector<std::string> argv = {
      bin_.server, "--port", "0", "--port-file", port_file,
      "--policy", w_.policy, "--io-threads", std::to_string(w_.io_threads),
      "--threads", "single", "--shards", "4",
      "--memory-budget", std::to_string(w_.memory_budget),
      "--wal-sync", "interval"};
  if (w_.policy != "cache-only") {
    data_dirs_.push_back(dir_ + "/" + tag + ".data");
    argv.push_back("--dir");
    argv.push_back(data_dirs_.back());
  }
  argv.insert(argv.end(), extra.begin(), extra.end());
  pids_.push_back(Spawn(argv, port_file + ".log"));
  *port = WaitPortFile(port_file, pids_.back(), 10);
  return pids_.back();
}

Deployment::~Deployment() {
  // Proxy first, then nodes, then the coordinator: reverse start order.
  for (auto it = pids_.rbegin(); it != pids_.rend(); ++it) StopProcess(*it);
  RemoveTree(dir_);
}

uint64_t Deployment::CpuMicros() const {
  uint64_t total = 0;
  for (pid_t pid : pids_) total += perfbench::CpuMicros(pid);
  return total;
}

uint64_t Deployment::RssBytes() const {
  uint64_t total = 0;
  for (pid_t pid : pids_) total += perfbench::RssBytes(pid);
  return total;
}

uint64_t Deployment::DiskBytes() const {
  uint64_t total = 0;
  for (const auto& d : data_dirs_) total += DirBytes(d);
  return total;
}

}  // namespace perfbench
