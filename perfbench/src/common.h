// Shared pieces of the perfbench load generator: the seeded op stream,
// key/value encoding with write versions, percentile and rate-ladder
// logic. Header-only so the unit tests link nothing but this file.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

constexpr size_t kKeyBytes = 16;
constexpr size_t kValueBytes = 100;

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// xoshiro256**: fully specified, so a seed gives the same stream on every
// platform (std:: distributions do not promise that).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : s_) {
      x = SplitMix64(x);
      s = x;
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// YCSB's scrambled zipfian (Gray et al.): rank from the zipf law, then
// hashed so the hot keys spread over the keyspace (and the cache shards).
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta) : n_(n) {
    zetan_ = Zeta(n, theta);
    const double zeta2 = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }
  uint64_t Next(Rng* rng) const {
    const double u = rng->Uniform();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1, alpha_));
    }
    if (rank >= n_) rank = n_ - 1;
    return SplitMix64(rank) % n_;
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
    return sum;
  }
  uint64_t n_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
};

// Zipfian set-up sums n terms (tens of ms for 1M keys); every stream of
// one keyspace shares one instance. Single-threaded use only.
inline std::shared_ptr<const Zipfian> SharedZipfian(uint64_t n, double theta) {
  static std::map<std::pair<uint64_t, double>, std::shared_ptr<const Zipfian>>
      cache;
  auto& slot = cache[{n, theta}];
  if (!slot) slot = std::make_shared<const Zipfian>(n, theta);
  return slot;
}

enum class OpType : uint8_t { kGet, kSet };

struct Op {
  OpType type = OpType::kGet;
  uint32_t key = 0;
  uint8_t conn = 0;     // Open loop: connection it is sent on.
  uint64_t due_ns = 0;  // Open loop: offset from the schedule's start.
};

struct StreamSpec {
  uint64_t keys = 1;
  double zipf_theta = 0;  // 0 = uniform keys.
  double get_fraction = 0.5;
};

// The op stream of one workload: key choice, GET/SET mix and, for an
// open loop, Poisson arrival times and the connection of each op. The
// same (seed, lane) always yields the same sequence; a closed loop runs
// one lane per connection so its per-connection streams are fixed too.
class OpStream {
 public:
  OpStream(const StreamSpec& spec, uint64_t seed, uint64_t lane,
           double rate_per_s = 0, int conns = 1)
      : spec_(spec),
        rng_(SplitMix64(seed) ^ SplitMix64(lane + 0x51ed)),
        rate_per_ns_(rate_per_s / 1e9),
        conns_(conns) {
    if (spec.zipf_theta > 0) zipf_ = SharedZipfian(spec.keys, spec.zipf_theta);
  }

  Op Next() {
    Op op;
    op.type = rng_.Uniform() < spec_.get_fraction ? OpType::kGet : OpType::kSet;
    op.key = static_cast<uint32_t>(zipf_ ? zipf_->Next(&rng_)
                                         : rng_.Below(spec_.keys));
    if (rate_per_ns_ > 0) {
      // Exponential inter-arrival gap, floored at 1 ns.
      const double gap = -std::log(1.0 - rng_.Uniform()) / rate_per_ns_;
      t_ns_ += std::max<uint64_t>(1, static_cast<uint64_t>(gap));
      op.due_ns = t_ns_;
      op.conn = static_cast<uint8_t>(rng_.Below(conns_));
    }
    return op;
  }

 private:
  StreamSpec spec_;
  Rng rng_;
  std::shared_ptr<const Zipfian> zipf_;
  double rate_per_ns_;
  int conns_;
  uint64_t t_ns_ = 0;
};

// --- Keys and values. ---------------------------------------------------

inline void EncodeKey(uint32_t key, char* out) {
  char buf[kKeyBytes + 1];
  snprintf(buf, sizeof(buf), "user%012u", key);
  memcpy(out, buf, kKeyBytes);
}

// Value layout (100 B): key(16) ':' version(10 digits) ':' filler(72).
// The filler is a function of (key, version), so a GET reply proves which
// write it returns.
inline void EncodeValue(uint32_t key, uint32_t version, char* out) {
  EncodeKey(key, out);
  char ver[12];
  snprintf(ver, sizeof(ver), ":%010u", version);
  memcpy(out + kKeyBytes, ver, 11);
  out[27] = ':';
  uint64_t h = SplitMix64((uint64_t(key) << 32) | version);
  for (size_t i = 28; i < kValueBytes; ++i) {
    if ((i & 7) == 4) h = SplitMix64(h);
    out[i] = static_cast<char>('a' + (h % 26));
    h /= 26;
  }
}

// Returns true and the version when `v` is exactly the value some write
// of `key` stored.
inline bool DecodeValue(uint32_t key, const char* v, size_t n,
                        uint32_t* version) {
  if (n != kValueBytes || v[16] != ':' || v[27] != ':') return false;
  uint64_t ver = 0;
  for (int i = 17; i < 27; ++i) {
    if (v[i] < '0' || v[i] > '9') return false;
    ver = ver * 10 + uint64_t(v[i] - '0');
  }
  if (ver > 0xffffffffull) return false;
  char expect[kValueBytes];
  EncodeValue(key, static_cast<uint32_t>(ver), expect);
  if (memcmp(expect, v, kValueBytes) != 0) return false;
  *version = static_cast<uint32_t>(ver);
  return true;
}

// Per-key bookkeeping for the freshness rule: a GET must return a version
// no older than the newest write acknowledged before it was sent. Writes
// of one key that overlapped in flight may land in either order, so an
// overlapped group leaves the floor where it was.
struct KeyState {
  uint32_t next_version = 1;  // Preload writes version 1.
  uint32_t floor = 0;         // Newest version a GET must not go below.
  uint32_t in_flight = 0;
  bool overlapped = false;
};

class Verifier {
 public:
  explicit Verifier(uint64_t keys) : state_(keys) {}
  void MarkPreloaded() {
    for (auto& s : state_) {
      s.next_version = 2;
      s.floor = 1;
    }
  }
  uint32_t OnSetSent(uint32_t key) {
    KeyState& s = state_[key];
    if (s.in_flight > 0) s.overlapped = true;
    ++s.in_flight;
    return s.next_version++;
  }
  void OnSetAcked(uint32_t key, uint32_t version) {
    KeyState& s = state_[key];
    --s.in_flight;
    if (!s.overlapped) s.floor = std::max(s.floor, version);
    if (s.in_flight == 0) s.overlapped = false;
  }
  // A failed write may or may not have landed; it only widens the set of
  // legal replies, which CheckGet already allows (version < next).
  void OnSetFailed(uint32_t key) {
    KeyState& s = state_[key];
    --s.in_flight;
    if (s.in_flight == 0) s.overlapped = false;
  }
  uint32_t FloorFor(uint32_t key) const { return state_[key].floor; }
  // True when a GET of `key` sent with `floor` may legally return value v.
  bool CheckGet(uint32_t key, uint32_t floor, const char* v, size_t n) const {
    uint32_t version = 0;
    if (!DecodeValue(key, v, n, &version)) return false;
    return version >= floor && version < state_[key].next_version;
  }

 private:
  std::vector<KeyState> state_;
};

// --- Percentiles and the rate ladder. -----------------------------------

// Nearest-rank percentile of `v` (reordered in place). Returns the value
// and sets *ok to whether at least `min_beyond` samples lie above that
// rank — the guide's rule for a reportable percentile.
inline double Percentile(std::vector<uint32_t>* v, double p, bool* ok = nullptr,
                         size_t min_beyond = 10) {
  if (v->empty()) {
    if (ok) *ok = false;
    return 0;
  }
  // The epsilon keeps 99.9 % of 1000 at rank 999 despite rounding.
  size_t rank =
      static_cast<size_t>(std::ceil(p * double(v->size()) / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + (rank - 1), v->end());
  if (ok) *ok = v->size() - rank >= min_beyond;
  return (*v)[rank - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of the middle values, the smallest and largest dropped (with three
// or more). For a figure that moves in steps, like a ladder rung, where
// the median would only ever read one step.
inline double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / double(v.size() - 2 * cut);
}

// Median over groups of consecutive windows of each group's percentile —
// steady against a stalled window — where each group holds enough
// samples for the percentile (ten beyond it). With fewer than three such
// groups, the percentile of all samples.
inline double WindowedPercentile(
    const std::vector<std::vector<uint32_t>>& windows, double pct,
    uint64_t* samples, bool* grouped = nullptr) {
  const size_t need = static_cast<size_t>(10.0 / (1.0 - pct / 100.0));
  std::vector<std::vector<uint32_t>> groups(1);
  std::vector<uint32_t> all;
  for (const auto& w : windows) {
    all.insert(all.end(), w.begin(), w.end());
    if (groups.back().size() >= need) groups.emplace_back();
    groups.back().insert(groups.back().end(), w.begin(), w.end());
  }
  *samples = all.size();
  if (groups.back().size() < need) {
    // Fold a short tail into the group before it.
    if (groups.size() > 1) {
      auto tail = std::move(groups.back());
      groups.pop_back();
      groups.back().insert(groups.back().end(), tail.begin(), tail.end());
    }
  }
  if (grouped) *grouped = groups.size() >= 3;
  if (groups.size() < 3) return Percentile(&all, pct) / 1e3;
  std::vector<double> per;
  for (auto& g : groups) per.push_back(Percentile(&g, pct) / 1e3);
  return Median(per);
}

// One rung of an open-loop rate ladder.
struct RungResult {
  double rate_kops = 0;
  double all_p99_us = 0;  // GETs and SETs together.
  double get_p99_us = 0;
  double set_p99_us = 0;
  // Whether each type had samples for three windowed groups; a type with
  // fewer (cache-d1's 5 % SETs on a short rung) is judged only through
  // all_p99_us, since its own p99 would rest on a handful of samples.
  bool get_judged = true;
  bool set_judged = true;
  uint64_t offered = 0;
  uint64_t completed_in_time = 0;  // Replied before the rung's end + limit.
  uint64_t backlog_at_end = 0;     // Sent but unreplied when the rung ended.
};

// A rung passes when the p99s meet the limit, at least 99 % of offered
// ops complete, and the backlog left at the end is no more than the
// rung's rate times the limit (what Little's law allows when every op
// meets the limit; a growing queue exceeds it).
inline bool RungPasses(const RungResult& r, double limit_us) {
  if (r.offered == 0) return false;
  if (r.all_p99_us > limit_us) return false;
  if (r.get_judged && r.get_p99_us > limit_us) return false;
  if (r.set_judged && r.set_p99_us > limit_us) return false;
  if (r.completed_in_time < 0.99 * r.offered) return false;
  const double allowed = r.rate_kops * 1e3 * limit_us * 1e-6;
  return r.backlog_at_end <= std::max(1.0, allowed);
}

// The ladder is climbed bottom-up. A failing rung is run once more (the
// retry follows it in `rungs`, at the same rate); the climb ends at a rung
// whose retry fails too. The SLO rate is the highest rung that passed
// before that point (0 when none did).
inline double SloRate(const std::vector<RungResult>& rungs, double limit_us) {
  double best = 0;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (RungPasses(rungs[i], limit_us)) {
      best = std::max(best, rungs[i].rate_kops);
      continue;
    }
    const bool retried = i + 1 < rungs.size() &&
                         rungs[i + 1].rate_kops == rungs[i].rate_kops;
    if (!retried) break;
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
