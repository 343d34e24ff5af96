// perfbench: drives the shipped tierbase_server / tierbase_proxy binaries
// over loopback RESP and prints the end-to-end metrics of one workload
// (--trace 0), or the per-layer metrics of the same op stream (--trace 1).
// The last line of stdout is one JSON object; everything before it is a
// human-readable report. See ../README.md.
//
//   perfbench --workload cache-d1 --seed 1 --seconds 10 --trace 0
//             --bin-dir <dir with tierbase_server ...> --work-dir <dir>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "floor.h"
#include "loadgen.h"
#include "procs.h"
#include "trace.h"
#include "workloads.h"

extern "C" int perfbench_library_ndebug();

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string bin_dir;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(next().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = next() == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--bin-dir") {
      a.bin_dir = next();
    } else if (flag == "--work-dir") {
      a.work_dir = next();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.bin_dir.empty() || a.work_dir.empty()) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--bin-dir DIR --work-dir DIR [--smoke]");
  }
  if (a.seconds < 1) Die("--seconds must be at least 1");
  return a;
}

// Refuses Debug and sanitizer builds, and a bench whose NDEBUG differs
// from libtierbase's (common::Mutex changes layout with NDEBUG).
std::string CheckBuild() {
#ifndef NDEBUG
  Die("refusing to measure: perfbench was built without NDEBUG (Debug)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to measure: sanitizer build");
#endif
  if (perfbench_library_ndebug() != 1) {
    Die("refusing to measure: libtierbase was built without NDEBUG");
  }
  return PERFBENCH_BUILD_TYPE;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count or method, for the report.
};

struct Totals {
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::string first_problem;
  void Add(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    mismatches += t.mismatches;
    if (first_problem.empty()) first_problem = t.first_problem;
  }
};

// One set-up: start the deployment, preload every key, warm up.
struct Session {
  std::unique_ptr<Verifier> verifier;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<LoadGen> gen;
  void Close(Totals* totals) {
    if (gen) totals->Add(gen->tally());
    gen.reset();
    dep.reset();
    verifier.reset();
  }
};

void Warmup(const Workload& w, LoadGen* gen, uint64_t seed, double seconds) {
  const uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
  if (w.open_loop) {
    OpStream s(w.stream, seed, 900, w.fixed_kops * 1e3, kConns);
    gen->RunOpen(&s, ns, 1, static_cast<uint64_t>(w.limit_us * 1e3), false);
  } else {
    std::vector<OpStream> lanes;
    for (int c = 0; c < kConns; ++c) {
      lanes.emplace_back(w.stream, seed, 900 + static_cast<uint64_t>(c));
    }
    gen->RunClosed(&lanes, w.depth, ns, 1, false);
  }
}

Session SetUp(const Workload& w, const Binaries& bin, const std::string& dir,
              uint64_t seed, double warm_s) {
  Session s;
  s.verifier = std::make_unique<Verifier>(w.stream.keys);
  s.dep = std::make_unique<Deployment>(w, bin, dir);
  s.gen = std::make_unique<LoadGen>(s.dep->port(), kConns, s.verifier.get());
  s.gen->Preload(w.stream.keys, 256);
  Warmup(w, s.gen.get(), seed, warm_s);
  return s;
}

// The measured phase of an untraced run (or the loopback leg of a traced
// one): latencies, throughput and server CPU per op.
struct Measured {
  PhaseResult phase;
  double kops = 0;
  double cpu_us_per_op = 0;
  double get_p50 = 0, get_p99 = 0, set_p50 = 0, set_p99 = 0;
  uint64_t get_n = 0, set_n = 0;
  double late_p50_us = 0, late_p99_us = 0;
};

Measured Measure(const Workload& w, Session* s, uint64_t seed, double seconds,
                 uint64_t lane_base) {
  Measured m;
  const uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
  const size_t windows = 20;
  const uint64_t cpu0 = s->dep->CpuMicros();
  if (w.open_loop) {
    OpStream stream(w.stream, seed, lane_base, w.fixed_kops * 1e3, kConns);
    m.phase = s->gen->RunOpen(&stream, ns, windows,
                              static_cast<uint64_t>(w.limit_us * 1e3), true);
    m.kops = m.phase.completed / seconds / 1e3;
    m.late_p50_us = Percentile(&m.phase.late_ns, 50) / 1e3;
    m.late_p99_us = Percentile(&m.phase.late_ns, 99) / 1e3;
  } else {
    std::vector<OpStream> lanes;
    for (int c = 0; c < kConns; ++c) {
      lanes.emplace_back(w.stream, seed, lane_base + static_cast<uint64_t>(c));
    }
    m.phase = s->gen->RunClosed(&lanes, w.depth, ns, windows, true);
    // Sustained rate: the median window, so a stall (an LSM write stall,
    // a host hiccup) lowers one window instead of the whole figure.
    std::vector<double> rates;
    for (uint64_t n : m.phase.completed_per_window) {
      rates.push_back(double(n) / (seconds / windows) / 1e3);
    }
    m.kops = Median(rates);
  }
  const uint64_t cpu1 = s->dep->CpuMicros();
  m.cpu_us_per_op = double(cpu1 - cpu0) / double(std::max<uint64_t>(
                                              1, m.phase.completed));
  uint64_t n = 0;
  m.get_p50 = WindowedPercentile(m.phase.log.get, 50, &m.get_n);
  m.get_p99 = WindowedPercentile(m.phase.log.get, 99, &n);
  m.set_p50 = WindowedPercentile(m.phase.log.set, 50, &m.set_n);
  m.set_p99 = WindowedPercentile(m.phase.log.set, 99, &n);
  return m;
}

// Runs one rung of the ladder at `kops` for `ns`.
RungResult RunRung(const Workload& w, Session* s, uint64_t seed, uint64_t lane,
                   double kops, uint64_t ns) {
  OpStream stream(w.stream, seed, lane, kops * 1e3, kConns);
  PhaseResult p = s->gen->RunOpen(&stream, ns, 10,
                                  static_cast<uint64_t>(w.limit_us * 1e3), true);
  RungResult r;
  uint64_t n = 0;
  r.rate_kops = kops;
  r.get_p99_us = WindowedPercentile(p.log.get, 99, &n, &r.get_judged);
  r.set_p99_us = WindowedPercentile(p.log.set, 99, &n, &r.set_judged);
  std::vector<std::vector<uint32_t>> all = p.log.get;
  for (size_t k = 0; k < all.size(); ++k) {
    all[k].insert(all[k].end(), p.log.set[k].begin(), p.log.set[k].end());
  }
  r.all_p99_us = WindowedPercentile(all, 99, &n);
  r.offered = p.offered;
  r.completed_in_time = p.completed_in_time;
  r.backlog_at_end = p.backlog_at_end;
  return r;
}

// Climbs the workload's rate ladder. A failing rung is run once more
// before the climb stops, so one burst of host noise does not end it.
double ClimbLadder(const Workload& w, Session* s, uint64_t seed,
                   double seconds, std::vector<RungResult>* rungs) {
  const double rung_s = std::max(0.3, seconds / w.ladder_kops.size());
  const uint64_t ns = static_cast<uint64_t>(rung_s * 1e9);
  for (size_t i = 0; i < w.ladder_kops.size(); ++i) {
    RungResult r = RunRung(w, s, seed, 100 + i, w.ladder_kops[i], ns);
    if (!RungPasses(r, w.limit_us)) {
      rungs->push_back(r);
      r = RunRung(w, s, seed, 200 + i, w.ladder_kops[i], ns);
    }
    rungs->push_back(r);
    if (!RungPasses(r, w.limit_us)) break;
  }
  return SloRate(*rungs, w.limit_us);
}

// The human-readable table, with the error ratio and its counts.
void PrintReport(const std::vector<Metric>& metrics, const Totals& totals) {
  printf("%-34s %14s  %-6s %s\n", "metric", "value", "unit", "note");
  for (const auto& m : metrics) {
    printf("%-34s %14.4f  %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
           m.note.c_str());
  }
  const double error_ratio =
      totals.attempted ? double(totals.failed) / double(totals.attempted) : 0;
  printf("%-34s %14.6f  %-6s %" PRIu64 " failed (%" PRIu64
         " mismatched) of %" PRIu64 " attempted\n",
         "error_ratio", error_ratio, "ratio", totals.failed, totals.mismatches,
         totals.attempted);
  if (!totals.first_problem.empty()) {
    printf("first problem: %s\n", totals.first_problem.c_str());
  }
}

// The result line (last line of stdout). Exits 1 on any failed or
// mismatched reply.
void EmitResult(const std::vector<Metric>& metrics, const Totals& totals) {
  const bool correct = totals.failed == 0 && totals.mismatches == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(totals.attempted) +
                     ", \"failed\": " + std::to_string(totals.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  if (!correct) exit(1);
}

int RunUntraced(const Workload& w, const Args& a, const Binaries& bin,
                double floor_us) {
  // Each set-up is a fresh deployment (fresh processes, fresh thread
  // placement) and gets an equal share of the measured time; every metric
  // is the median over the set-ups, which keeps one unlucky placement or
  // burst of host noise from setting a run's result.
  const int setups = a.smoke ? 1 : w.setups;
  const double warm_s = a.smoke ? 0.1 : 0.5;
  const double share = a.seconds / setups;
  // Open loop: half of each share at the fixed rate, half on the ladder.
  const double fixed_s = w.open_loop ? share / 2 : share;
  const double user_bytes =
      double(w.stream.keys) * double(kKeyBytes + kValueBytes);
  // A set-up whose generator was typically late — median lateness over a
  // quarter of the latency limit — measured the generator, not the
  // server: it is invalid and not reported. It is done again after a
  // pause, so a burst of host noise can pass, while the run has redos
  // and time left; the run itself is invalid only if most of its set-ups
  // were. (The p99 lateness is reported but not judged: host stalls of
  // several ms hold up generator and server alike and are charged to the
  // ops they delay.)
  const double late_limit_us = w.limit_us / 4;
  const uint64_t run_start = NowNs();
  const double redo_until_s = 90;
  int redos_left = setups;
  int late_setups = 0;
  Totals totals;
  std::map<std::string, std::vector<double>> per;  // metric -> per set-up
  uint64_t get_n = 0, set_n = 0;
  for (int i = 0; i < setups; ++i) {
    const uint64_t t0 = NowNs();
    Session s = SetUp(w, bin, a.work_dir + "/setup" + std::to_string(i),
                      a.seed, warm_s);
    const double setup_s = double(NowNs() - t0) / 1e9;
    const uint64_t lane = 1000 * static_cast<uint64_t>(i);
    Measured m = Measure(w, &s, a.seed, fixed_s, lane);
    double slo = 0;
    if (w.open_loop) {
      std::vector<RungResult> rungs;
      slo = ClimbLadder(w, &s, a.seed + lane, share - fixed_s, &rungs);
      for (const auto& r : rungs) {
        printf("# set-up %d rung %6.1f kops: p99 all %.1f get %.1f%s set "
               "%.1f%s us, %" PRIu64 "/%" PRIu64 " in time, backlog %" PRIu64
               " -> %s\n",
               i, r.rate_kops, r.all_p99_us, r.get_p99_us,
               r.get_judged ? "" : "*", r.set_p99_us, r.set_judged ? "" : "*",
               r.completed_in_time, r.offered, r.backlog_at_end,
               RungPasses(r, w.limit_us) ? "pass" : "fail");
      }
    } else if (m.get_p99 <= w.limit_us && m.set_p99 <= w.limit_us) {
      slo = m.kops;  // A closed loop's rate counts only within the limit.
    }
    const double rss = double(s.dep->RssBytes());
    const double disk = double(s.dep->DiskBytes());
    s.Close(&totals);
    printf("# set-up %d: setup %.2f s, get p50/p99 %.1f/%.1f us, set p50/p99 "
           "%.1f/%.1f us, %.2f kops, slo %.1f kops, cpu %.2f us/op, late "
           "p50/p99 %.1f/%.1f us\n",
           i, setup_s, m.get_p50, m.get_p99, m.set_p50, m.set_p99, m.kops, slo,
           m.cpu_us_per_op, m.late_p50_us, m.late_p99_us);
    if (w.open_loop && m.late_p50_us > late_limit_us) {
      ++late_setups;
      const double elapsed_s = double(NowNs() - run_start) / 1e9;
      if (redos_left > 0 && elapsed_s < redo_until_s) {
        --redos_left;
        printf("# set-up %d invalid: generator late; measuring it again\n", i);
        usleep(1'000'000);
        --i;
      } else {
        printf("# set-up %d invalid: generator late; no redo left\n", i);
      }
      continue;
    }
    per["setup_s"].push_back(setup_s);
    per["get_p50_us"].push_back(m.get_p50);
    per["get_p99_us"].push_back(m.get_p99);
    per["set_p50_us"].push_back(m.set_p50);
    per["set_p99_us"].push_back(m.set_p99);
    per["kops"].push_back(m.kops);
    per["slo_kops"].push_back(slo);
    per["cpu_us_per_op"].push_back(m.cpu_us_per_op);
    per["dram_bytes_per_user_byte"].push_back(rss / user_bytes);
    per["stored_bytes_per_user_byte"].push_back((rss + disk) / user_bytes);
    per["disk"].push_back(disk / user_bytes);
    per["late"].push_back(m.late_p99_us);
    get_n += m.get_n;
    set_n += m.set_n;
  }
  const int valid = static_cast<int>(per["setup_s"].size());
  if (valid <= setups / 2) {
    fprintf(stderr,
            "perfbench: run invalid: the generator's median lateness exceeded "
            "%.1f us (a quarter of the latency limit) in %d set-ups; only %d "
            "of %d were valid\n",
            late_limit_us, late_setups, valid, setups);
    return 3;
  }
  auto med = [&](const char* k) { return Median(per[k]); };

  char note[200];
  std::vector<Metric> out;
  const std::string at =
      w.open_loop ? "open loop at " + std::to_string(int(w.fixed_kops)) + " kops"
                  : "closed loop " + std::to_string(kConns) + "x" +
                        std::to_string(w.depth);
  const std::string over = "median of " + std::to_string(valid) + " set-ups";
  snprintf(note, sizeof(note), "n=%" PRIu64 ", %s, %s", get_n, at.c_str(),
           over.c_str());
  out.push_back({"get_p50_us", med("get_p50_us"), "us", note});
  snprintf(note, sizeof(note), "n=%" PRIu64 ", %s, %s", set_n, at.c_str(),
           over.c_str());
  out.push_back({"set_p50_us", med("set_p50_us"), "us", note});
  out.push_back({"kops", med("kops"), "kops", "completed ops/s, " + at});
  // The highest passing rung moves in ladder steps, so the median of a
  // few set-ups would only read one step: the mean of the middle set-ups
  // follows the capacity between steps.
  snprintf(note, sizeof(note), "limit %.0f us on GET/SET p99, %s", w.limit_us,
           w.open_loop ? "trimmed mean of the set-ups" : over.c_str());
  out.push_back({"slo_kops",
                 w.open_loop ? TrimmedMean(per["slo_kops"]) : med("slo_kops"),
                 "kops", note});
  out.push_back({"cpu_us_per_op", med("cpu_us_per_op"), "us",
                 "user+sys of every server process / completed ops"});
  out.push_back({"dram_bytes_per_user_byte", med("dram_bytes_per_user_byte"),
                 "ratio", "summed server RSS / live user bytes"});
  out.push_back({"stored_bytes_per_user_byte",
                 med("stored_bytes_per_user_byte"), "ratio",
                 "(RSS + data-dir bytes) / live user bytes"});
  out.push_back({"setup_s", med("setup_s"), "s",
                 over + ", spawn to listening, preloaded and warm"});
  const double late = med("late");
  // p99s are reported here and by the traced run, but carry no bound: on
  // a shared VM their run-to-run spread is wider than any useful bound
  // (slo_kops holds the tail to its limit instead).
  printf("# tail get_p99_us=%.2f set_p99_us=%.2f (%s)\n", med("get_p99_us"),
         med("set_p99_us"), over.c_str());
  printf("# control net.floor_rtt_p50_us=%.2f gen.late_p99_us=%.2f "
         "disk_bytes_per_user_byte=%.4f\n",
         floor_us, late, med("disk"));
  PrintReport(out, totals);
  EmitResult(out, totals);
  return 0;
}

// Units of the per-layer metrics TraceInProcess returns.
std::string LayerUnit(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      {"cache.evictions_per_set", "ratio"},
      {"cache.probe_ns", "ns"},
      {"cache.shard_locks_per_batch", "ratio"},
      {"core.fetch_keys_per_call", "ratio"},
      {"core.get_us", "us"},
      {"core.hit_ratio", "ratio"},
      {"core.set_us", "us"},
      {"core.wb_backpressure_waits", "count"},
      {"core.wb_merge_ratio", "ratio"},
      {"core.wb_ops_per_flush", "ratio"},
      {"core.wt_keys_per_storage_call", "ratio"},
      {"lsm.compactions", "count"},
      {"lsm.flushes", "count"},
      {"lsm.write_amp", "ratio"},
      {"lsm.write_stalls", "count"},
      {"server.exec_batch_self_us", "us"},
      {"server.parse_ns_per_cmd", "ns"},
      {"storage.calls_per_op", "ratio"},
      {"storage.read_us", "us"},
      {"storage.write_batch_us", "us"},
      {"threading.handoff_wait_p50_us", "us"},
      {"threading.handoff_wait_p99_us", "us"},
      {"trace.overhead", "ratio"},
  };
  const auto it = units.find(name);
  if (it == units.end()) Die("no unit for per-layer metric " + name);
  return it->second;
}

int RunTraced(const Workload& w, const Args& a, const Binaries& bin,
              double floor_us) {
  Totals totals;
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    out.push_back({name, v, unit, ""});
  };
  const double warm_s = a.smoke ? 0.1 : 0.5;

  // Loopback leg: the shipped server, scraped before and after.
  double loop_p50 = 0, late_p99 = 0, hop = 0, fanout_p99 = 0;
  {
    Session s = SetUp(w, bin, a.work_dir + "/traced", a.seed, warm_s);
    std::vector<std::unique_ptr<SyncClient>> nodes;
    for (int port : s.dep->node_ports()) {
      nodes.push_back(std::make_unique<SyncClient>(port));
      nodes.back()->Call({"LATENCY", "RESET"});
    }
    std::vector<std::map<std::string, std::string>> before;
    for (auto& n : nodes) before.push_back(n->Info());
    std::unique_ptr<SyncClient> proxy;
    if (w.proxy) {
      proxy = std::make_unique<SyncClient>(s.dep->port());
      proxy->Call({"LATENCY", "RESET"});
    }
    Measured m = Measure(w, &s, a.seed, a.seconds * 0.3, 0);
    loop_p50 = m.get_p50;
    late_p99 = m.late_p99_us;
    add("client.get_p99_us", m.get_p99, "us");
    add("client.set_p99_us", m.set_p99, "us");
    double cmds = 0, batches = 0, wakeups = 0, srv_p50 = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto after = nodes[i]->Info();
      auto delta = [&](const char* k) {
        return std::strtod(after[k].c_str(), nullptr) -
               std::strtod(before[i][k].c_str(), nullptr);
      };
      cmds += delta("total_commands_processed");
      batches += delta("dispatched_batches");
      wakeups += delta("loop_wakeups");
      const Reply& h = nodes[i]->Call({"LATENCY", "HISTOGRAM", "GET"});
      if (h.type == Reply::kArray && h.elements.size() == 2) {
        srv_p50 += HistField(std::string(h.elements[1].str), "p50") /
                   double(nodes.size());
      }
    }
    add("server.cmds_per_batch", batches > 0 ? cmds / batches : 0, "count");
    add("server.wakeups_per_batch", batches > 0 ? wakeups / batches : 0,
        "count");
    add("server.srv_get_p50_us", srv_p50, "us");
    if (proxy) {
      auto info = proxy->Info();
      fanout_p99 = HistField(info["proxy_fanout_latency_us"], "p99");
    }
    proxy.reset();
    nodes.clear();
    s.Close(&totals);
    if (w.proxy) {
      // The same stream straight to one plain node: the proxy's hop is the
      // difference of the two p50s.
      Workload direct = w;
      direct.proxy = false;
      Session d = SetUp(direct, bin, a.work_dir + "/direct", a.seed, warm_s);
      Measured dm = Measure(direct, &d, a.seed, a.seconds * 0.15, 0);
      hop = loop_p50 - dm.get_p50;
      d.Close(&totals);
    }
  }
  add("proxy.hop_us", hop, "us");
  add("proxy.fanout_p99_us", fanout_p99, "us");

  // In-process leg: the same stream through the library's own calls.
  const std::string spans = a.work_dir + "/spans-" + w.name + ".tsv";
  auto layer = TraceInProcess(w, a.seed, a.seconds * 0.4,
                              a.work_dir + "/inproc", spans);
  for (const auto& [name, v] : layer) add(name, v, LayerUnit(name));
  // Leftover: what the client saw that neither the floor nor any
  // in-process self time explains (reactor, wake-ups, queueing, encode).
  const double per_request = layer["server.parse_ns_per_cmd"] *
                                 (w.open_loop ? 1 : w.depth) / 1e3 +
                             layer["threading.handoff_wait_p50_us"] +
                             layer["server.exec_batch_self_us"];
  add("net.floor_rtt_p50_us", floor_us, "us");
  add("gen.late_p99_us", late_p99, "us");
  add("trace.leftover_us", loop_p50 - floor_us - per_request, "us");
  printf("# traced: loopback get p50 %.2f us = floor %.2f + in-process self "
         "%.2f + leftover %.2f; spans in %s\n",
         loop_p50, floor_us, per_request, loop_p50 - floor_us - per_request,
         spans.c_str());
  std::sort(out.begin(), out.end(),
            [](const Metric& x, const Metric& y) { return x.name < y.name; });
  PrintReport(out, totals);
  EmitResult(out, totals);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  prctl(PR_SET_TIMERSLACK, 1UL);  // ns-resolution ppoll wake-ups.
  // Best effort: a generator that keeps its schedule while the servers
  // saturate the CPUs. Without the privilege it runs at normal priority
  // and gen.late_p99_us shows the cost.
  setpriority(PRIO_PROCESS, 0, -10);
  const Args a = ParseArgs(argc, argv);
  const std::string build_type = CheckBuild();
  Workload w = FindWorkload(a.workload);
  if (a.smoke) w.stream.keys = std::min<uint64_t>(w.stream.keys, 20'000);
  Binaries bin{a.bin_dir + "/tierbase_server", a.bin_dir + "/tierbase_proxy",
               a.bin_dir + "/tierbase_coordinator"};
  const char* commit = getenv("PERFBENCH_COMMIT");
  printf("# fingerprint nproc=%ld cpu=\"%s\" compiler=\"gcc %s\" build=%s "
         "ndebug=1 commit=%s\n",
         sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__,
         build_type.c_str(), commit ? commit : "unknown");
  const double floor_us = FloorRttP50Us(kConns, a.smoke ? 0.05 : 0.3);
  printf("# control net.floor_rtt_p50_us=%.2f\n", floor_us);
  printf("# workload %s seed=%" PRIu64 " seconds=%.0f trace=%d keys=%" PRIu64
         "\n",
         w.name.c_str(), a.seed, a.seconds, a.trace ? 1 : 0, w.stream.keys);
  fflush(stdout);
  return a.trace ? RunTraced(w, a, bin, floor_us)
                 : RunUntraced(w, a, bin, floor_us);
}
