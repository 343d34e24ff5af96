#include "trace.h"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "procs.h"
#include "server/command.h"
#include "server/resp.h"
#include "threading/elastic_executor.h"

namespace perfbench {

namespace {

// --- Spans. ---------------------------------------------------------------

struct Span {
  uint64_t id;
  uint64_t parent;  // 0 = none; storage spans with no parent are background.
  uint64_t op;      // The batch (request) it belongs to; 0 = background.
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Spans stay in memory until the run ends; past the cap they are counted
// but dropped, so a long run cannot exhaust memory.
class SpanLog {
 public:
  static constexpr size_t kCap = 4'000'000;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kCap) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }
  uint64_t dropped() {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// The span (and request) the calling thread is inside, set by the bench
// around each call it makes into the library.
thread_local uint64_t tls_span = 0;
thread_local uint64_t tls_op = 0;

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op)
      : log_(log), saved_span_(tls_span), saved_op_(tls_op) {
    span_.id = log->NextId();
    span_.parent = tls_span;
    span_.op = op;
    span_.name = name;
    tls_span = span_.id;
    tls_op = op;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    tls_span = saved_span_;
    tls_op = saved_op_;
    log_->Add(span_);
  }
  uint64_t id() const { return span_.id; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_{};
  uint64_t saved_span_, saved_op_;
};

// --- The timing storage adapter. -------------------------------------------

// Wraps the real LSM adapter; every call becomes a span whose parent is
// the bench span current on the calling thread (background otherwise).
class TimingStorage : public tierbase::StorageAdapter {
 public:
  TimingStorage(std::unique_ptr<tierbase::LsmStorageAdapter> inner,
                SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void set_enabled(bool on) { enabled_.store(on); }
  tierbase::LsmStorageAdapter* inner() { return inner_.get(); }

  std::string name() const override { return "timing+" + inner_->name(); }
  tierbase::Status Write(const tierbase::Slice& key,
                         const tierbase::Slice& value) override {
    Timed t(this, "storage.write", 1, key.size() + value.size());
    return inner_->Write(key, value);
  }
  tierbase::Status Delete(const tierbase::Slice& key) override {
    Timed t(this, "storage.delete", 1, key.size());
    return inner_->Delete(key);
  }
  tierbase::Status Read(const tierbase::Slice& key,
                        std::string* value) override {
    Timed t(this, "storage.read", 0, 0);
    return inner_->Read(key, value);
  }
  tierbase::Status WriteBatch(const std::vector<BatchOp>& ops) override {
    uint64_t bytes = 0;
    for (const auto& op : ops) bytes += op.key.size() + op.value.size();
    Timed t(this, "storage.write_batch", ops.size(), bytes);
    return inner_->WriteBatch(ops);
  }
  tierbase::Status MultiRead(const std::vector<std::string>& keys,
                             std::vector<std::string>* values,
                             std::vector<bool>* found) override {
    Timed t(this, "storage.multi_read", 0, 0);
    return inner_->MultiRead(keys, values, found);
  }
  tierbase::UsageStats GetUsage() const override {
    return inner_->GetUsage();
  }
  tierbase::Status WaitIdle() override { return inner_->WaitIdle(); }

  // Totals since open, foreground and background alike.
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> user_bytes_written{0};
  // Foreground writes only (a request was waiting on them).
  std::atomic<uint64_t> fg_write_calls{0};
  std::atomic<uint64_t> fg_keys_written{0};

 private:
  class Timed {
   public:
    Timed(TimingStorage* s, const char* name, uint64_t keys, uint64_t bytes)
        : s_(s), name_(name), start_(NowNs()) {
      s->calls.fetch_add(1);
      s->user_bytes_written.fetch_add(bytes);
      if (keys > 0 && tls_span != 0) {
        s->fg_write_calls.fetch_add(1);
        s->fg_keys_written.fetch_add(keys);
      }
    }
    ~Timed() {
      if (!s_->enabled_.load(std::memory_order_relaxed)) return;
      Span span{s_->log_->NextId(), tls_span, tls_op, name_, start_, NowNs()};
      s_->log_->Add(span);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimingStorage* s_;
    const char* name_;
    uint64_t start_;
  };

  std::unique_ptr<tierbase::LsmStorageAdapter> inner_;
  SpanLog* log_;
  std::atomic<bool> enabled_{true};
};

// --- Helpers. -----------------------------------------------------------------

double P(std::vector<uint32_t> v, double pct) { return Percentile(&v, pct); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One request as the server would read it: `ops` encoded back to back.
struct Request {
  std::string bytes;
  std::vector<Op> ops;
  std::vector<tierbase::server::RespCommand> cmds;
};

std::string EncodeRequest(const std::vector<Op>& ops) {
  std::string out;
  char key[kKeyBytes], value[kValueBytes];
  for (const Op& op : ops) {
    EncodeKey(op.key, key);
    if (op.type == OpType::kGet) {
      AppendCommand(&out, {"GET", std::string_view(key, kKeyBytes)});
    } else {
      EncodeValue(op.key, 2, value);
      AppendCommand(&out, {"SET", std::string_view(key, kKeyBytes),
                           std::string_view(value, kValueBytes)});
    }
  }
  return out;
}

}  // namespace

std::map<std::string, double> TraceInProcess(const Workload& w, uint64_t seed,
                                             double seconds,
                                             const std::string& dir,
                                             const std::string& spans_path) {
  using namespace tierbase;
  SpanLog log;
  mkdir(dir.c_str(), 0755);

  // --- Open the engine as tierbase_server would for this workload. ---
  TierBaseOptions options;
  options.cache.shards = 4;
  options.cache.memory_budget = w.memory_budget;
  std::unique_ptr<TimingStorage> storage;
  if (w.policy == "write-through" || w.policy == "write-back") {
    options.policy = w.policy == "write-through" ? CachingPolicy::kWriteThrough
                                                 : CachingPolicy::kWriteBack;
    lsm::LsmOptions lsm_options;
    lsm_options.dir = dir + "/storage";
    auto lsm = LsmStorageAdapter::Open(lsm_options);
    if (!lsm.ok()) Die("LSM open: " + lsm.status().ToString());
    storage = std::make_unique<TimingStorage>(std::move(*lsm), &log);
  }
  auto opened = TierBase::Open(options, storage.get());
  if (!opened.ok()) Die("TierBase open: " + opened.status().ToString());
  std::unique_ptr<TierBase> db = std::move(*opened);

  // --- Preload version 1 of every key (background storage spans). ---
  {
    std::vector<std::string> keys, values;
    std::vector<Slice> ks, vs;
    std::vector<Status> st;
    char key[kKeyBytes], value[kValueBytes];
    for (uint64_t k = 0; k < w.stream.keys;) {
      keys.clear();
      values.clear();
      for (int i = 0; i < 256 && k < w.stream.keys; ++i, ++k) {
        EncodeKey(static_cast<uint32_t>(k), key);
        EncodeValue(static_cast<uint32_t>(k), 1, value);
        keys.emplace_back(key, kKeyBytes);
        values.emplace_back(value, kValueBytes);
      }
      ks.assign(keys.begin(), keys.end());
      vs.assign(values.begin(), values.end());
      db->MultiSet(ks, vs, &st);
      for (const auto& s : st) {
        if (!s.ok()) Die("in-process preload: " + s.ToString());
      }
    }
  }

  // --- The op stream, cut into requests as the server would see them. ---
  const int batch = w.open_loop ? 1 : w.depth;
  const size_t max_ops = w.open_loop ? 60'000 : 200'000;
  std::vector<OpStream> lanes;
  for (int c = 0; c < (w.open_loop ? 1 : kConns); ++c) {
    lanes.emplace_back(w.stream, seed, static_cast<uint64_t>(c));
  }
  std::vector<Request> requests;
  for (size_t n = 0; n < max_ops; n += static_cast<size_t>(batch)) {
    Request r;
    OpStream& lane = lanes[requests.size() % lanes.size()];
    for (int i = 0; i < batch; ++i) r.ops.push_back(lane.Next());
    r.bytes = EncodeRequest(r.ops);
    requests.push_back(std::move(r));
  }
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  std::map<std::string, double> m;

  // Pass 1 — server: ParseRequests on the request bytes.
  std::vector<uint32_t> parse_ns;
  for (auto& r : requests) {
    size_t consumed = 0;
    std::string error;
    const uint64_t t0 = NowNs();
    const auto pr = server::ParseRequests(r.bytes.data(), r.bytes.size(),
                                          &r.cmds, &consumed, &error);
    const uint64_t t1 = NowNs();
    if (pr != server::ParseResult::kOk || r.cmds.size() != r.ops.size()) {
      Die("ParseRequests rejected a generated request: " + error);
    }
    parse_ns.push_back(static_cast<uint32_t>(t1 - t0));
  }
  m["server.parse_ns_per_cmd"] = P(parse_ns, 50) / batch;

  // Pass 2 — the served path: Submit to the executor, run ExecuteBatch
  // there. Requests alternate between recording spans and not, so the
  // two halves see the same LSM state and the ratio of their medians is
  // the tracing overhead.
  threading::ElasticOptions exec_options;
  exec_options.mode = threading::ThreadMode::kSingle;  // --threads single
  threading::ElasticExecutor executor(exec_options);
  server::CommandTable table(db.get());
  const TierBase::Stats before = db->GetStats();
  const uint64_t storage_calls_before = storage ? storage->calls.load() : 0;

  std::vector<uint32_t> total_plain, total_traced, handoff;
  uint64_t ops_served = 0;
  size_t next_req = 0;
  const uint64_t serve_deadline = NowNs() + budget_ns * 3 / 5;
  while (NowNs() < serve_deadline) {
    const bool traced = next_req % 2 == 1;
    std::vector<uint32_t>* totals = traced ? &total_traced : &total_plain;
    if (storage) storage->set_enabled(traced);
    Request& r = requests[next_req++ % requests.size()];
    const uint64_t op_id = next_req;
    std::atomic<bool> done{false};
    uint64_t t_start = 0, t_end = 0, span_id = 0;
    std::string out;
    const uint64_t t_submit = NowNs();
    executor.Submit([&] {
      t_start = NowNs();
      bool close = false, shutdown = false;
      if (traced) {
        ScopedSpan span(&log, "server.execute_batch", op_id);
        span_id = span.id();
        table.ExecuteBatch(r.cmds, &out, &close, &shutdown);
      } else {
        table.ExecuteBatch(r.cmds, &out, &close, &shutdown);
      }
      t_end = NowNs();
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    if (out.empty() || out[0] == '-') Die("ExecuteBatch returned an error");
    totals->push_back(static_cast<uint32_t>(t_end - t_submit));
    ops_served += r.ops.size();
    if (traced) {
      handoff.push_back(static_cast<uint32_t>(t_start - t_submit));
      Span s{span_id, 0, op_id, "threading.handoff", t_submit, t_start};
      log.Add(s);
    }
  }
  const TierBase::Stats after = db->GetStats();

  m["trace.overhead"] = Ratio(P(total_traced, 50), P(total_plain, 50));
  m["threading.handoff_wait_p50_us"] = P(handoff, 50) / 1e3;
  m["threading.handoff_wait_p99_us"] = P(handoff, 99) / 1e3;

  // Self time of ExecuteBatch = its span minus its storage children.
  std::vector<Span> spans = log.Take();
  {
    std::map<uint64_t, uint64_t> child_ns;
    std::vector<uint32_t> read_ns, write_batch_ns;
    for (const auto& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
      const std::string name = s.name;
      if (name == "storage.read" || name == "storage.multi_read") {
        read_ns.push_back(static_cast<uint32_t>(s.end_ns - s.start_ns));
      } else if (name == "storage.write_batch") {
        write_batch_ns.push_back(static_cast<uint32_t>(s.end_ns - s.start_ns));
      }
    }
    std::vector<uint32_t> self;
    for (const auto& s : spans) {
      if (std::string(s.name) != "server.execute_batch") continue;
      const uint64_t dur = s.end_ns - s.start_ns;
      const uint64_t kids = child_ns[s.id];
      self.push_back(static_cast<uint32_t>(dur > kids ? dur - kids : 0));
    }
    m["server.exec_batch_self_us"] = P(self, 50) / 1e3;
    m["storage.read_us"] = P(read_ns, 50) / 1e3;
    m["storage.write_batch_us"] = P(write_batch_ns, 50) / 1e3;
  }

  const double gets = double(after.gets - before.gets);
  const double hits = double(after.cache_hits - before.cache_hits);
  const double sets = double(after.sets - before.sets);
  m["core.hit_ratio"] = Ratio(hits, gets);
  m["core.fetch_keys_per_call"] =
      Ratio(double(after.deferred_fetch.fetches - before.deferred_fetch.fetches),
            double(after.deferred_fetch.batch_calls -
                   before.deferred_fetch.batch_calls));
  m["core.wt_keys_per_storage_call"] =
      storage ? Ratio(double(storage->fg_keys_written.load()),
                      double(storage->fg_write_calls.load()))
              : 0;
  m["core.wb_ops_per_flush"] =
      Ratio(double(after.write_back.flushed_ops - before.write_back.flushed_ops),
            double(after.write_back.flush_batches -
                   before.write_back.flush_batches));
  m["core.wb_merge_ratio"] = Ratio(
      double(after.write_back.merged_updates - before.write_back.merged_updates),
      double(after.write_back.updates - before.write_back.updates));
  m["core.wb_backpressure_waits"] = double(
      after.write_back.backpressure_waits - before.write_back.backpressure_waits);
  m["cache.evictions_per_set"] =
      Ratio(double(after.evictions - before.evictions), sets);
  m["cache.shard_locks_per_batch"] =
      Ratio(double(after.multi_shard_locks - before.multi_shard_locks),
            double(after.multi_batches - before.multi_batches));
  m["storage.calls_per_op"] =
      storage ? Ratio(double(storage->calls.load() - storage_calls_before),
                      double(ops_served))
              : 0;

  // Pass 4 — core: TierBase Get/Set (depth 1) or MultiGet/MultiSet trains,
  // as CommandTable coalesces them.
  {
    std::vector<uint32_t> get_ns, set_ns;
    const uint64_t deadline = NowNs() + budget_ns / 5;
    char key[kKeyBytes], value[kValueBytes];
    std::string got;
    std::vector<std::string> keys, values, got_values;
    std::vector<Slice> ks, vs;
    std::vector<Status> st;
    for (size_t i = 0; NowNs() < deadline; ++i) {
      const Request& r = requests[i % requests.size()];
      for (size_t b = 0; b < r.ops.size();) {
        size_t e = b;
        while (e < r.ops.size() && r.ops[e].type == r.ops[b].type) ++e;
        const bool is_get = r.ops[b].type == OpType::kGet;
        keys.clear();
        values.clear();
        for (size_t j = b; j < e; ++j) {
          EncodeKey(r.ops[j].key, key);
          keys.emplace_back(key, kKeyBytes);
          if (!is_get) {
            EncodeValue(r.ops[j].key, 3, value);
            values.emplace_back(value, kValueBytes);
          }
        }
        ks.assign(keys.begin(), keys.end());
        vs.assign(values.begin(), values.end());
        const uint64_t t0 = NowNs();
        {
          ScopedSpan span(&log, is_get ? "core.get" : "core.set", i + 1);
          if (ks.size() == 1) {
            Status s = is_get ? db->Get(ks[0], &got) : db->Set(ks[0], vs[0]);
            if (!s.ok()) Die("TierBase call failed: " + s.ToString());
          } else {
            if (is_get) {
              db->MultiGet(ks, &got_values, &st);
            } else {
              db->MultiSet(ks, vs, &st);
            }
            for (const Status& one : st) {
              if (!one.ok()) Die("TierBase batch call failed: " + one.ToString());
            }
          }
        }
        (is_get ? get_ns : set_ns).push_back(
            static_cast<uint32_t>(NowNs() - t0));
        b = e;
      }
    }
    m["core.get_us"] = P(get_ns, 50) / 1e3;
    m["core.set_us"] = P(set_ns, 50) / 1e3;
  }

  // Pass 5 — cache: HashEngine::Get on db->cache() for the GET keys.
  {
    std::vector<uint32_t> probe_ns;
    const uint64_t deadline = NowNs() + budget_ns / 10;
    char key[kKeyBytes];
    std::string got;
    for (size_t i = 0; NowNs() < deadline; ++i) {
      const Request& r = requests[i % requests.size()];
      for (const Op& op : r.ops) {
        if (op.type != OpType::kGet) continue;
        EncodeKey(op.key, key);
        const uint64_t t0 = NowNs();
        Status s = db->cache()->Get(Slice(key, kKeyBytes), &got);
        probe_ns.push_back(static_cast<uint32_t>(NowNs() - t0));
        (void)s;  // A miss (evicted key) is a valid probe too.
      }
    }
    m["cache.probe_ns"] = P(probe_ns, 50);
  }

  // LSM: totals since open (preload included), so the ratios have mass.
  if (storage) {
    const Status idle = storage->inner()->store()->WaitIdle();
    if (!idle.ok()) Die("LSM WaitIdle: " + idle.ToString());
    const lsm::LsmStore::Stats ls = storage->inner()->store()->GetStats();
    m["lsm.write_amp"] =
        Ratio(double(ls.bytes_flushed + ls.bytes_compacted),
              double(storage->user_bytes_written.load()));
    m["lsm.flushes"] = double(ls.flushes);
    m["lsm.compactions"] = double(ls.compactions);
    m["lsm.write_stalls"] = double(ls.write_stalls);
  } else {
    for (const char* k : {"lsm.write_amp", "lsm.flushes", "lsm.compactions",
                          "lsm.write_stalls"}) {
      m[k] = 0;
    }
  }

  executor.Shutdown();
  // Spans are written once, at the end.
  std::vector<Span> rest = log.Take();
  spans.insert(spans.end(), rest.begin(), rest.end());
  if (FILE* f = fopen(spans_path.c_str(), "w")) {
    fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\tbackground\n");
    for (const auto& s : spans) {
      const bool bg = s.parent == 0 && std::string(s.name).rfind("storage.", 0) == 0;
      fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\t%d\n",
              (unsigned long long)s.id, (unsigned long long)s.parent,
              (unsigned long long)s.op, s.name,
              (unsigned long long)s.start_ns, (unsigned long long)s.end_ns,
              bg ? 1 : 0);
    }
    fclose(f);
  }
  printf("# spans: %zu written, %llu dropped past the in-memory cap\n",
         spans.size(), static_cast<unsigned long long>(log.dropped()));
  db.reset();
  storage.reset();
  RemoveTree(dir);
  return m;
}

}  // namespace perfbench
