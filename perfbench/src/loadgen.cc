#include "loadgen.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "procs.h"
#include "resp_reader.h"

namespace perfbench {

namespace {

void AppendGet(std::string* out, const char* key) {
  out->append("*2\r\n$3\r\nGET\r\n$16\r\n");
  out->append(key, kKeyBytes);
  out->append("\r\n");
}

void AppendSet(std::string* out, const char* key, const char* value) {
  out->append("*3\r\n$3\r\nSET\r\n$16\r\n");
  out->append(key, kKeyBytes);
  out->append("\r\n$100\r\n");
  out->append(value, kValueBytes);
  out->append("\r\n");
}

}  // namespace

LoadGen::LoadGen(int port, int conns, Verifier* verifier)
    : conns_(static_cast<size_t>(conns)), verifier_(verifier) {
  for (auto& c : conns_) c.fd = ConnectLoopback(port, true);
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) close(c.fd);
}

void LoadGen::Problem(const std::string& what) {
  if (tally_.first_problem.empty()) tally_.first_problem = what;
}

void LoadGen::Enqueue(Conn* c, const Op& op, bool preload, uint64_t t0_ns,
                      int32_t window) {
  char key[kKeyBytes];
  EncodeKey(op.key, key);
  Pending p{op.type, preload, op.key, 0, window, t0_ns};
  if (op.type == OpType::kGet) {
    p.aux = verifier_->FloorFor(op.key);
    AppendGet(&c->out, key);
  } else {
    p.aux = preload ? 1 : verifier_->OnSetSent(op.key);
    char value[kValueBytes];
    EncodeValue(op.key, p.aux, value);
    AppendSet(&c->out, key, value);
  }
  c->queue.push_back(p);
  ++tally_.attempted;
  if (phase_ != nullptr) ++phase_->offered;
}

void LoadGen::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n =
        write(c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later.
      if (errno == EINTR) continue;
      Die("write to server failed");
    }
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
}

void LoadGen::OnReply(Conn* c, const Reply& r, uint64_t now_ns) {
  if (c->queue.empty()) Die("reply without a request");
  const Pending p = c->queue.front();
  c->queue.pop_front();
  bool ok = false;
  if (p.type == OpType::kSet) {
    ok = r.type == Reply::kSimple && r.str == "OK";
    if (!p.preload) {
      if (ok) {
        verifier_->OnSetAcked(p.key, p.aux);
      } else {
        verifier_->OnSetFailed(p.key);
      }
    }
    if (!ok) Problem("SET failed: " + std::string(r.str));
  } else if (r.type == Reply::kBulk) {
    ok = verifier_->CheckGet(p.key, p.aux, r.str.data(), r.str.size());
    if (!ok) {
      ++tally_.mismatches;
      Problem("GET user" + std::to_string(p.key) +
              " returned a wrong or stale value");
    }
  } else {
    ++tally_.mismatches;
    Problem("GET user" + std::to_string(p.key) + " returned " +
            (r.type == Reply::kNull ? std::string("nil")
                                    : std::string(r.str)));
  }
  if (!ok) ++tally_.failed;
  if (phase_ == nullptr) return;
  ++phase_->completed;
  if (lanes_ != nullptr && now_ns < closed_end_) {
    ++phase_->completed_per_window[(now_ns - closed_start_) * windows_ /
                                   (closed_end_ - closed_start_)];
  }
  if (now_ns <= deadline_ns_) ++phase_->completed_in_time;
  if (record_ && p.window >= 0) {
    const uint64_t lat = now_ns > p.t0_ns ? now_ns - p.t0_ns : 0;
    const uint32_t clamped = lat > 0xffffffffull ? 0xffffffffu
                                                 : static_cast<uint32_t>(lat);
    auto& bucket = p.type == OpType::kGet ? phase_->log.get : phase_->log.set;
    bucket[static_cast<size_t>(p.window)].push_back(clamped);
  }
}

void LoadGen::ReadReplies(Conn* c) {
  for (;;) {
    if (c->in_off == c->in_len) {
      c->in_off = c->in_len = 0;
    } else if (c->in.size() - c->in_len < 65536) {
      // Keep the unparsed tail, then grow if it still leaves little room.
      memmove(c->in.data(), c->in.data() + c->in_off, c->in_len - c->in_off);
      c->in_len -= c->in_off;
      c->in_off = 0;
      if (c->in.size() - c->in_len < 65536) c->in.resize(c->in.size() * 2);
    }
    const size_t room = c->in.size() - c->in_len;
    const ssize_t n = read(c->fd, c->in.data() + c->in_len, room);
    if (n == 0) Die("server closed a load connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Die("read from server failed");
    }
    c->in_len += static_cast<size_t>(n);
    const uint64_t now = NowNs();
    Reply r;
    for (;;) {
      const long used = ParseReply(c->in.data() + c->in_off,
                                   c->in_len - c->in_off, &r);
      if (used < 0) Die("malformed reply from server");
      if (used == 0) break;
      c->in_off += static_cast<size_t>(used);
      OnReply(c, r, now);
    }
    if (static_cast<size_t>(n) < room) break;
  }
  // Closed loop: a drained connection flushes its next batch at once.
  if (lanes_ != nullptr && c->queue.empty()) {
    const uint64_t now = NowNs();
    if (now < closed_end_) {
      const size_t idx = static_cast<size_t>(c - conns_.data());
      const int32_t window = static_cast<int32_t>(
          (now - closed_start_) * windows_ / (closed_end_ - closed_start_));
      for (int i = 0; i < depth_; ++i) {
        Enqueue(c, (*lanes_)[idx].Next(), false, now, window);
      }
      Flush(c);
    }
  }
}

void LoadGen::PollOnce(uint64_t timeout_ns) {
  pollfd fds[16];
  const size_t n = conns_.size();
  for (size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN;
    if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
    fds[i].revents = 0;
  }
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  const int ready = ppoll(fds, n, &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    Die("ppoll failed");
  }
  for (size_t i = 0; i < n; ++i) {
    if (fds[i].revents & POLLOUT) Flush(&conns_[i]);
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) ReadReplies(&conns_[i]);
  }
}

uint64_t LoadGen::Outstanding() const {
  uint64_t total = 0;
  for (const auto& c : conns_) total += c.queue.size();
  return total;
}

void LoadGen::Drain(uint64_t timeout_ns) {
  const uint64_t deadline = NowNs() + timeout_ns;
  while (Outstanding() > 0) {
    const uint64_t now = NowNs();
    if (now >= deadline) {
      tally_.failed += Outstanding();
      Die("replies timed out: " + std::to_string(Outstanding()) +
          " ops unanswered");
    }
    PollOnce(std::min<uint64_t>(deadline - now, 50'000'000));
  }
}

void LoadGen::Preload(uint64_t keys, int depth) {
  uint64_t next = 0;
  while (next < keys) {
    for (auto& c : conns_) {
      if (!c.queue.empty()) continue;
      for (int i = 0; i < depth && next < keys; ++i, ++next) {
        Op op;
        op.type = OpType::kSet;
        op.key = static_cast<uint32_t>(next);
        Enqueue(&c, op, true, 0, -1);
      }
      Flush(&c);
    }
    PollOnce(50'000'000);
  }
  Drain(30'000'000'000ull);
  verifier_->MarkPreloaded();
}

PhaseResult LoadGen::RunOpen(OpStream* stream, uint64_t duration_ns,
                             size_t windows, uint64_t limit_ns, bool record) {
  PhaseResult result;
  result.log = LatencyLog(windows);
  phase_ = &result;
  record_ = record;
  const uint64_t start = NowNs() + 1'000'000;  // 1 ms lead-in.
  const uint64_t end = start + duration_ns;
  deadline_ns_ = end + limit_ns;
  Op next = stream->Next();
  for (;;) {
    uint64_t now = NowNs();
    while (next.due_ns < duration_ns && start + next.due_ns <= now) {
      const uint64_t due = start + next.due_ns;
      Conn* c = &conns_[next.conn % conns_.size()];
      const int32_t window =
          static_cast<int32_t>(next.due_ns * windows / duration_ns);
      // Charged from the due time, so generator lateness and any stall
      // count against the op (no coordinated omission).
      Enqueue(c, next, false, due, window);
      Flush(c);
      now = NowNs();
      if (record) {
        const uint64_t late = now - due;
        result.late_ns.push_back(late > 0xffffffffull
                                     ? 0xffffffffu
                                     : static_cast<uint32_t>(late));
      }
      next = stream->Next();
    }
    if (now >= end) break;
    const uint64_t wake = next.due_ns < duration_ns ? start + next.due_ns : end;
    PollOnce(wake > now ? wake - now : 0);
  }
  result.backlog_at_end = Outstanding();
  Drain(10'000'000'000ull);
  phase_ = nullptr;
  return result;
}

PhaseResult LoadGen::RunClosed(std::vector<OpStream>* lanes, int depth,
                               uint64_t duration_ns, size_t windows,
                               bool record) {
  PhaseResult result;
  result.log = LatencyLog(windows);
  result.completed_per_window.assign(windows, 0);
  phase_ = &result;
  record_ = record;
  lanes_ = lanes;
  depth_ = depth;
  windows_ = windows;
  closed_start_ = NowNs();
  closed_end_ = closed_start_ + duration_ns;
  deadline_ns_ = UINT64_MAX;
  for (size_t i = 0; i < conns_.size(); ++i) {
    for (int k = 0; k < depth; ++k) {
      Enqueue(&conns_[i], (*lanes)[i].Next(), false, closed_start_, 0);
    }
    Flush(&conns_[i]);
  }
  while (Outstanding() > 0) PollOnce(50'000'000);
  lanes_ = nullptr;
  phase_ = nullptr;
  return result;
}

}  // namespace perfbench
