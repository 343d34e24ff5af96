// The load generator: up to a handful of nonblocking connections driven
// from one thread, in an open loop (ops sent when due, one command per
// frame, replies matched FIFO per connection) or a closed pipelined loop
// (a batch of `depth` commands per flush, the next batch after the last
// reply). Every reply is checked against the Verifier.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common.h"
#include "resp_reader.h"

namespace perfbench {

// Per-op latencies in ns, bucketed into the measured phase's windows.
struct LatencyLog {
  explicit LatencyLog(size_t windows = 1) : get(windows), set(windows) {}
  std::vector<std::vector<uint32_t>> get, set;
};

struct PhaseResult {
  LatencyLog log;
  std::vector<uint32_t> late_ns;   // Open loop: send time - due time.
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t completed_in_time = 0;  // Replied by the phase end + limit.
  uint64_t backlog_at_end = 0;
  // Closed loop: replies received in each window of the phase.
  std::vector<uint64_t> completed_per_window;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // Error replies, timeouts and mismatches.
  uint64_t mismatches = 0;  // Wrong content or a stale version.
  std::string first_problem;
};

class LoadGen {
 public:
  LoadGen(int port, int conns, Verifier* verifier);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Writes version 1 of every key, `depth` SETs per flush per connection.
  void Preload(uint64_t keys, int depth);
  // Open loop for `duration_ns` over `stream` (which carries the rate).
  PhaseResult RunOpen(OpStream* stream, uint64_t duration_ns, size_t windows,
                      uint64_t limit_ns, bool record);
  // Closed loop; lanes[i] feeds connection i.
  PhaseResult RunClosed(std::vector<OpStream>* lanes, int depth,
                        uint64_t duration_ns, size_t windows, bool record);

  const Tally& tally() const { return tally_; }

 private:
  struct Pending {
    OpType type;
    bool preload;
    uint32_t key;
    uint32_t aux;  // SET: version written. GET: freshness floor at send.
    int32_t window;
    uint64_t t0_ns;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::vector<char> in = std::vector<char>(1 << 18);
    size_t in_len = 0;  // Bytes read into `in`.
    size_t in_off = 0;  // Bytes of `in` already parsed.
    std::deque<Pending> queue;
  };

  void Enqueue(Conn* c, const Op& op, bool preload, uint64_t t0_ns,
               int32_t window);
  void Flush(Conn* c);
  // Polls every connection for up to `timeout_ns`, reading and checking
  // replies. Returns after the first batch of events (or the timeout).
  void PollOnce(uint64_t timeout_ns);
  void ReadReplies(Conn* c);
  void OnReply(Conn* c, const Reply& r, uint64_t now_ns);
  uint64_t Outstanding() const;
  // Waits for every outstanding reply; ops still unanswered after
  // `timeout_ns` count as failed and end the run.
  void Drain(uint64_t timeout_ns);
  void Problem(const std::string& what);

  std::vector<Conn> conns_;
  Verifier* verifier_;
  Tally tally_;
  // State of the phase in progress.
  PhaseResult* phase_ = nullptr;
  uint64_t deadline_ns_ = 0;  // completed_in_time cut-off.
  // Closed loop: refill a connection's batch when it drains.
  std::vector<OpStream>* lanes_ = nullptr;
  int depth_ = 0;
  uint64_t closed_start_ = 0, closed_end_ = 0;
  size_t windows_ = 1;
  bool record_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
