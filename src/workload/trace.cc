#include "workload/trace.h"

#include <algorithm>

#include <atomic>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "common/coding.h"
#include "common/env.h"

namespace tierbase {
namespace workload {

double Trace::ReadFraction() const {
  if (ops.empty()) return 0;
  uint64_t reads = 0;
  for (const auto& op : ops) {
    if (op.type == OpType::kRead) ++reads;
  }
  return static_cast<double>(reads) / static_cast<double>(ops.size());
}

Trace SynthesizeTrace(const SynthesizeOptions& options) {
  Trace trace;
  trace.key_space = options.key_space;
  trace.dataset = options.dataset;
  trace.ops.reserve(options.num_ops);
  Random rng(options.seed);

  switch (options.profile) {
    case TraceProfile::kUserInfo: {
      // 32:1 read:write (500K updates vs 16M reads per second, §6.5),
      // Zipfian popularity over the whole user base.
      ScrambledZipfianGenerator zipf(options.key_space, options.zipfian_theta,
                                     options.seed + 1);
      const double write_fraction = 1.0 / 33.0;
      for (uint64_t i = 0; i < options.num_ops; ++i) {
        uint64_t key = zipf.Next();
        bool write = rng.Bernoulli(write_fraction);
        trace.ops.push_back({write ? OpType::kUpdate : OpType::kRead, key});
      }
      break;
    }
    case TraceProfile::kReconciliation: {
      // 1:1 read:write. Writes append new records (channel data flowing
      // in); reads hit recent writes with high probability ("recent data
      // is frequently accessed, long-term data occasionally retrieved" —
      // §6.5 observes ~80% hit rate with ~1% of the data cached). Reads
      // draw from a small recency window most of the time, with a uniform
      // tail over the history for the occasional audit look-ups.
      uint64_t next_key = 0;
      const double kRecentReadFraction = 0.85;
      const uint64_t kRecencyWindow =
          std::max<uint64_t>(1, options.key_space / 100);  // ~1% of keys.
      ZipfianGenerator recency(kRecencyWindow, 0.99, options.seed + 2);
      for (uint64_t i = 0; i < options.num_ops; ++i) {
        if (i % 2 == 0 || next_key == 0) {
          trace.ops.push_back(
              {OpType::kUpdate, next_key % options.key_space});
          ++next_key;
        } else {
          uint64_t back = rng.Bernoulli(kRecentReadFraction)
                              ? recency.Next()          // Just-written data.
                              : rng.Uniform(next_key);  // Cold audit read.
          uint64_t key = back >= next_key ? 0 : (next_key - 1 - back);
          trace.ops.push_back({OpType::kRead, key % options.key_space});
        }
      }
      break;
    }
  }
  return trace;
}

Status WriteTrace(const Trace& trace, const std::string& path) {
  std::string out;
  PutFixed64(&out, trace.key_space);
  PutFixed32(&out, static_cast<uint32_t>(trace.dataset.kind));
  PutFixed64(&out, trace.dataset.num_records);
  PutFixed64(&out, trace.dataset.mean_record_bytes);
  PutFixed64(&out, trace.dataset.seed);
  PutFixed64(&out, trace.ops.size());
  for (const auto& op : trace.ops) {
    out.push_back(static_cast<char>(op.type));
    PutVarint64(&out, op.key_index);
  }
  return env::WriteStringToFileSync(path, out);
}

Result<Trace> ReadTrace(const std::string& path) {
  std::string contents;
  Status s = env::ReadFileToString(path, &contents);
  if (!s.ok()) return s;
  Slice in(contents);
  Trace trace;
  uint64_t n = 0, kind = 0;
  uint32_t kind32 = 0;
  if (!GetFixed64(&in, &trace.key_space) || !GetFixed32(&in, &kind32) ||
      !GetFixed64(&in, &trace.dataset.num_records) ||
      !GetFixed64(&in, &n)) {
    return Status::Corruption("trace: bad header");
  }
  trace.dataset.mean_record_bytes = n;
  if (!GetFixed64(&in, &trace.dataset.seed) || !GetFixed64(&in, &n)) {
    return Status::Corruption("trace: bad header");
  }
  kind = kind32;
  trace.dataset.kind = static_cast<DatasetKind>(kind);
  trace.ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (in.empty()) return Status::Corruption("trace: truncated");
    TraceOp op;
    op.type = static_cast<OpType>(in[0]);
    in.remove_prefix(1);
    if (!GetVarint64(&in, &op.key_index)) {
      return Status::Corruption("trace: bad op");
    }
    trace.ops.push_back(op);
  }
  return trace;
}

RunResult ReplayTrace(KvEngine* engine, const Trace& trace, int threads,
                      double target_qps) {
  std::vector<std::thread> workers;
  std::vector<Histogram> histograms(static_cast<size_t>(threads));
  std::atomic<uint64_t> errors{0}, not_found{0};
  Stopwatch watch;

  // Threads claim ops from a shared cursor rather than a round-robin
  // pre-partition, preserving the trace's temporal order (and therefore
  // its recency locality) under concurrent replay. The cursor alone does
  // not bound reordering: a thread descheduled between claiming op i and
  // issuing it lets the others run a whole time slice ahead. So no op
  // starts more than kReorderWindow positions past the oldest op a thread
  // still holds. Each thread publishes the op it holds in its own cache
  // line and keeps the previous one there until the next claim is
  // published, so the slots' minimum never overstates the oldest unfinished
  // op and never decreases. A thread re-reads the slots only when it
  // reaches the edge of the window it last saw.
  constexpr uint64_t kReorderWindow = 1024;
  struct alignas(64) Slot {
    std::atomic<uint64_t> op{0};
  };
  const uint64_t n = trace.ops.size();
  std::vector<Slot> slots(static_cast<size_t>(threads));
  auto oldest_held = [&] {
    uint64_t oldest = n;
    for (const Slot& slot : slots) {
      oldest = std::min(oldest, slot.op.load(std::memory_order_acquire));
    }
    return oldest;
  };
  std::atomic<uint64_t> cursor{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      double per_thread_interval =
          target_qps > 0 ? 1e6 * threads / target_qps : 0;
      double next = static_cast<double>(Clock::Real()->NowMicros());
      std::atomic<uint64_t>& held = slots[static_cast<size_t>(t)].op;
      uint64_t oldest = 0;
      for (uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        held.store(i, std::memory_order_release);
        // Cannot wait forever: the thread holding the oldest op is inside
        // the window, so it is not waiting.
        while (i >= oldest + kReorderWindow) {
          oldest = oldest_held();
          if (i >= oldest + kReorderWindow) std::this_thread::yield();
        }
        if (per_thread_interval > 0) {
          next += per_thread_interval;
          uint64_t now = Clock::Real()->NowMicros();
          if (next > static_cast<double>(now)) {
            Clock::Real()->SleepMicros(static_cast<uint64_t>(next) - now);
          }
        }
        const TraceOp& op = trace.ops[i];
        std::string key = KeyFor(op.key_index);
        uint64_t start = Clock::Real()->NowMicros();
        Status s;
        if (op.type == OpType::kRead) {
          std::string out;
          s = engine->Get(key, &out);
        } else if (op.type == OpType::kDelete) {
          s = engine->Delete(key);
        } else {
          s = engine->Set(key, MakeRecord(trace.dataset, op.key_index));
        }
        histograms[static_cast<size_t>(t)].Add(Clock::Real()->NowMicros() -
                                               start);
        if (s.IsNotFound()) {
          not_found.fetch_add(1, std::memory_order_relaxed);
        } else if (!s.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      held.store(n, std::memory_order_release);
    });
  }
  for (auto& w : workers) w.join();

  RunResult result;
  result.seconds = watch.ElapsedSeconds();
  result.ops = trace.ops.size();
  result.throughput = result.seconds > 0
                          ? static_cast<double>(result.ops) / result.seconds
                          : 0;
  for (const auto& h : histograms) result.latency.Merge(h);
  result.errors = errors.load();
  result.not_found = not_found.load();
  return result;
}

double AverageReuseDistanceOps(const Trace& trace) {
  std::unordered_map<uint64_t, uint64_t> last_access;
  double total = 0;
  uint64_t count = 0;
  for (uint64_t i = 0; i < trace.ops.size(); ++i) {
    uint64_t key = trace.ops[i].key_index;
    auto it = last_access.find(key);
    if (it != last_access.end()) {
      total += static_cast<double>(i - it->second);
      ++count;
      it->second = i;
    } else {
      last_access.emplace(key, i);
    }
  }
  return count == 0 ? static_cast<double>(trace.ops.size())
                    : total / static_cast<double>(count);
}

}  // namespace workload
}  // namespace tierbase
