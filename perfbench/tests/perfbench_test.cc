// Unit tests of the benchmark's own logic: op-stream determinism, the
// reply reader on split frames, value verification, the percentile rule
// and the rate ladder. No server is needed; `python3 perfbench/run.py
// --test` runs this binary and then the smoke mode.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "resp_reader.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
              #cond);                                                 \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<Op> Take(OpStream* s, int n) {
  std::vector<Op> out;
  for (int i = 0; i < n; ++i) out.push_back(s->Next());
  return out;
}

bool Same(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].key != b[i].key ||
        a[i].conn != b[i].conn || a[i].due_ns != b[i].due_ns) {
      return false;
    }
  }
  return true;
}

void TestSameSeedSameStream() {
  const StreamSpec zipf{100'000, 0.99, 0.95};
  OpStream a(zipf, 7, 0, 20'000, 4), b(zipf, 7, 0, 20'000, 4);
  OpStream c(zipf, 8, 0, 20'000, 4), d(zipf, 7, 1, 20'000, 4);
  const auto ta = Take(&a, 5000), tb = Take(&b, 5000);
  CHECK(Same(ta, tb));                  // Keys, mix, conns and due times.
  CHECK(!Same(ta, Take(&c, 5000)));     // Another seed differs.
  CHECK(!Same(ta, Take(&d, 5000)));     // Another lane differs.
  // Arrival times are increasing, and the mean rate is close to the ask.
  bool increasing = true;
  for (size_t i = 1; i < ta.size(); ++i) {
    if (ta[i].due_ns <= ta[i - 1].due_ns) increasing = false;
  }
  CHECK(increasing);
  const double rate = ta.size() / (ta.back().due_ns / 1e9);
  CHECK(rate > 18'000 && rate < 22'000);
  // The mix and the key range.
  int gets = 0;
  bool in_range = true;
  for (const auto& op : ta) {
    gets += op.type == OpType::kGet;
    if (op.key >= zipf.keys || op.conn >= 4) in_range = false;
  }
  CHECK(in_range);
  CHECK(gets > 4600 && gets < 4900);
  // Zipfian skew: the hottest key takes far more than a uniform share.
  std::vector<int> count(zipf.keys);
  int top = 0;
  for (const auto& op : ta) top = std::max(top, ++count[op.key]);
  CHECK(top > 100);
  // A closed-loop lane has no arrival times.
  OpStream e(StreamSpec{1000, 0, 0.5}, 7, 0);
  CHECK(e.Next().due_ns == 0);
}

void TestReplyReaderSplitFrames() {
  const std::string value(100, 'x');
  const std::string wire = "+OK\r\n$100\r\n" + value + "\r\n$-1\r\n:42\r\n" +
                           "-ERR no\r\n*2\r\n$3\r\nabc\r\n:7\r\n$0\r\n\r\n";
  // Feed every split point: the prefix parses whole frames only.
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    std::string buf = wire.substr(0, cut);
    size_t off = 0;
    int frames = 0;
    Reply r;
    for (;;) {
      const long used = ParseReply(buf.data() + off, buf.size() - off, &r);
      CHECK(used >= 0);
      if (used <= 0) break;
      off += static_cast<size_t>(used);
      ++frames;
    }
    // Append the rest and finish: every frame arrives exactly once.
    buf += wire.substr(cut);
    std::vector<Reply> got;
    for (;;) {
      const long used = ParseReply(buf.data() + off, buf.size() - off, &r);
      if (used <= 0) break;
      off += static_cast<size_t>(used);
      got.push_back(r);
    }
    CHECK(off == wire.size());
    CHECK(frames + static_cast<int>(got.size()) == 7);
  }
  Reply r;
  std::string all = wire;
  size_t off = 0;
  std::vector<Reply::Type> types;
  std::vector<std::string> strs;
  while (off < all.size()) {
    const long used = ParseReply(all.data() + off, all.size() - off, &r);
    CHECK(used > 0);
    if (used <= 0) break;
    off += static_cast<size_t>(used);
    types.push_back(r.type);
    strs.emplace_back(r.str);
    if (r.type == Reply::kArray) {
      CHECK(r.elements.size() == 2);
      CHECK(r.elements[0].str == "abc");
      CHECK(r.elements[1].integer == 7);
    }
    if (r.type == Reply::kInteger) CHECK(r.integer == 42);
  }
  CHECK(types.size() == 7);
  CHECK(types[0] == Reply::kSimple && strs[0] == "OK");
  CHECK(types[1] == Reply::kBulk && strs[1] == value);
  CHECK(types[2] == Reply::kNull);
  CHECK(types[4] == Reply::kError && strs[4] == "ERR no");
  CHECK(types[6] == Reply::kBulk && strs[6].empty());
  // Garbage is an error, not a crash.
  CHECK(ParseReply("?x\r\n", 4, &r) == -1);
  CHECK(ParseReply("$abc\r\n", 6, &r) == -1);
  CHECK(ParseReply("$3\r\nabcXY", 9, &r) == -1);
}

void TestValuesAndFreshness() {
  char v[kValueBytes];
  EncodeValue(12, 5, v);
  uint32_t ver = 0;
  CHECK(DecodeValue(12, v, kValueBytes, &ver) && ver == 5);
  CHECK(!DecodeValue(13, v, kValueBytes, &ver));  // Another key's value.
  v[60] ^= 1;
  CHECK(!DecodeValue(12, v, kValueBytes, &ver));  // A flipped byte.

  Verifier verifier(16);
  verifier.MarkPreloaded();
  char v1[kValueBytes], v2[kValueBytes], v3[kValueBytes];
  EncodeValue(3, 1, v1);
  CHECK(verifier.CheckGet(3, verifier.FloorFor(3), v1, kValueBytes));
  const uint32_t w2 = verifier.OnSetSent(3);
  CHECK(w2 == 2);
  EncodeValue(3, 2, v2);
  // In flight: either version is legal.
  CHECK(verifier.CheckGet(3, verifier.FloorFor(3), v1, kValueBytes));
  CHECK(verifier.CheckGet(3, verifier.FloorFor(3), v2, kValueBytes));
  verifier.OnSetAcked(3, w2);
  // Acknowledged: the old version is now stale.
  CHECK(!verifier.CheckGet(3, verifier.FloorFor(3), v1, kValueBytes));
  CHECK(verifier.CheckGet(3, verifier.FloorFor(3), v2, kValueBytes));
  // A version never written is rejected.
  EncodeValue(3, 3, v3);
  CHECK(!verifier.CheckGet(3, verifier.FloorFor(3), v3, kValueBytes));
  // Overlapping writes may land in either order: the floor stays put.
  const uint32_t a = verifier.OnSetSent(3), b = verifier.OnSetSent(3);
  verifier.OnSetAcked(3, b);
  verifier.OnSetAcked(3, a);
  EncodeValue(3, a, v3);
  CHECK(verifier.CheckGet(3, verifier.FloorFor(3), v3, kValueBytes));
}

void TestPercentileRule() {
  std::vector<uint32_t> v;
  for (uint32_t i = 1; i <= 1000; ++i) v.push_back(i);
  bool ok = false;
  CHECK(Percentile(&v, 50, &ok) == 500 && ok);
  CHECK(Percentile(&v, 99, &ok) == 990 && ok);  // 10 samples beyond.
  CHECK(Percentile(&v, 99.9, &ok) == 999 && !ok);  // Only 1 beyond.
  std::vector<uint32_t> small = {5, 1, 3};
  CHECK(Percentile(&small, 50, &ok) == 3 && !ok);
  std::vector<uint32_t> none;
  CHECK(Percentile(&none, 50, &ok) == 0 && !ok);
  CHECK(Median({3, 1, 2}) == 2);
  // Windowed: the median of per-group p99s ignores one stalled window.
  std::vector<std::vector<uint32_t>> windows(5);
  for (auto& w : windows) {
    for (uint32_t i = 1; i <= 1000; ++i) w.push_back(i * 1000);
  }
  for (auto& x : windows[2]) x = 50'000'000;  // 50 ms stall.
  uint64_t n = 0;
  bool grouped = false;
  CHECK(WindowedPercentile(windows, 99, &n, &grouped) == 990 && grouped);
  CHECK(n == 5000);
  // Too few samples for three groups: the percentile of all samples.
  std::vector<std::vector<uint32_t>> sparse_w(5, std::vector<uint32_t>(300, 7000));
  CHECK(WindowedPercentile(sparse_w, 99, &n, &grouped) == 7 && !grouped);
  CHECK(Median({4, 1, 2, 3}) == 2.5);
  CHECK(TrimmedMean({90, 140, 60, 100, 110}) == 100);
  CHECK(TrimmedMean({80, 90}) == 85);
  CHECK(TrimmedMean({}) == 0);
}

void TestRateLadder() {
  auto rung = [](double kops, double p99, double done_share, uint64_t backlog) {
    RungResult r;
    r.rate_kops = kops;
    r.all_p99_us = r.get_p99_us = r.set_p99_us = p99;
    r.offered = 10'000;
    r.completed_in_time = static_cast<uint64_t>(10'000 * done_share);
    r.backlog_at_end = backlog;
    return r;
  };
  const double limit = 1000;  // us
  CHECK(RungPasses(rung(10, 200, 1.0, 2), limit));
  CHECK(!RungPasses(rung(10, 1200, 1.0, 2), limit));   // p99 over the limit.
  CHECK(!RungPasses(rung(10, 200, 0.98, 2), limit));   // < 99 % completed.
  // 10 kops x 1 ms allows a backlog of 10 at the end.
  CHECK(RungPasses(rung(10, 200, 1.0, 10), limit));
  CHECK(!RungPasses(rung(10, 200, 1.0, 11), limit));   // Growing queue.
  RungResult empty;
  CHECK(!RungPasses(empty, limit));
  // A type too sparse to judge on its own counts only through all ops.
  RungResult sparse = rung(10, 200, 1.0, 2);
  sparse.set_p99_us = 5000;
  CHECK(!RungPasses(sparse, limit));
  sparse.set_judged = false;
  CHECK(RungPasses(sparse, limit));
  sparse.all_p99_us = 1500;
  CHECK(!RungPasses(sparse, limit));
  // The SLO rate is the last rung before the first failure...
  CHECK(SloRate({rung(10, 200, 1, 0), rung(20, 300, 1, 0),
                 rung(30, 2000, 1, 0), rung(40, 200, 1, 0)},
                limit) == 20);
  CHECK(SloRate({rung(10, 2000, 1, 0)}, limit) == 0);
  CHECK(SloRate({rung(10, 100, 1, 0), rung(20, 100, 1, 0)}, limit) == 20);
  // ...and a failing rung whose retry passes does not end the climb.
  CHECK(SloRate({rung(10, 200, 1, 0), rung(20, 2000, 1, 0),
                 rung(20, 300, 1, 0), rung(30, 300, 1, 0),
                 rung(40, 2000, 1, 0), rung(40, 2000, 1, 0)},
                limit) == 30);
}

}  // namespace

int main() {
  TestSameSeedSameStream();
  TestReplyReaderSplitFrames();
  TestValuesAndFreshness();
  TestPercentileRule();
  TestRateLadder();
  if (failures != 0) {
    fprintf(stderr, "perfbench_test: %d check(s) failed\n", failures);
    return 1;
  }
  printf("perfbench_test: all checks passed\n");
  return 0;
}
