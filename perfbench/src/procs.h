// Process and socket plumbing for perfbench: spawning the shipped server
// binaries, reading their CPU and memory from /proc, sizing data
// directories, and a blocking RESP client for set-up and scrapes.

#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "resp_reader.h"

namespace perfbench {

[[noreturn]] void Die(const std::string& msg);

// fork+exec `argv` with stdout/stderr appended to `log_path`.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);
// Waits (up to `timeout_s`) for `pid` to write its port to `port_file`.
int WaitPortFile(const std::string& port_file, pid_t pid, double timeout_s);
// SIGTERM, then SIGKILL after `grace_s`; always reaps the child.
void StopProcess(pid_t pid, double grace_s = 5.0);

// User+system CPU of `pid` (all threads) in microseconds.
uint64_t CpuMicros(pid_t pid);
// Resident set size of `pid` in bytes.
uint64_t RssBytes(pid_t pid);
// Sum of regular-file sizes under `dir` (recursive); 0 if it is missing.
uint64_t DirBytes(const std::string& dir);
void RemoveTree(const std::string& dir);

// Connects to 127.0.0.1:port with TCP_NODELAY; blocking socket.
int ConnectLoopback(int port, bool nonblocking);

// A blocking request/reply client for set-up, scrapes and SHUTDOWN.
class SyncClient {
 public:
  explicit SyncClient(int port);
  ~SyncClient();
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  // Sends one command and returns its reply; the reply's views stay valid
  // until the next call.
  const Reply& Call(std::initializer_list<std::string_view> args);
  // INFO as key -> value.
  std::map<std::string, std::string> Info();

 private:
  int fd_;
  std::string buf_;
  Reply reply_;
};

// Parses "cnt=..,p50=..,p99=.." histogram summaries from INFO/LATENCY.
double HistField(const std::string& summary, const std::string& field);

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
