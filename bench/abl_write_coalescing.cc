// Ablation: write coalescing (§4.1.1). google-benchmark microbenchmark of
// the per-key coalescer with coalescing on vs off, under hot-key
// contention — the mechanism that lowers PC_miss for write-through.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "core/write_through.h"

namespace tierbase {
namespace {

void BM_Coalescer(benchmark::State& state) {
  const bool coalesce = state.range(0) != 0;
  const int hot_keys = static_cast<int>(state.range(1));

  // Storage write with a fixed simulated remote latency; the coalescer's
  // value is collapsing redundant remote writes.
  std::atomic<uint64_t> storage_writes{0};
  PerKeyCoalescer coalescer(
      [&](const std::vector<PerKeyCoalescer::BatchWrite>&) {
        storage_writes.fetch_add(1, std::memory_order_relaxed);
        BusySpinNanos(20'000);  // 20us simulated storage RTT.
        return Status::OK();
      },
      coalesce);

  std::atomic<uint64_t> ops{0};
  for (auto _ : state) {
    state.PauseTiming();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    state.ResumeTiming();
    for (int t = 0; t < 8; ++t) {
      writers.emplace_back([&, t] {
        Random rng(t);
        for (int i = 0; i < 500; ++i) {
          std::string key = "hot" + std::to_string(rng.Uniform(hot_keys));
          coalescer.Write(key, "value", false);
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : writers) w.join();
    (void)stop;
  }
  state.counters["ops"] = static_cast<double>(ops.load());
  state.counters["storage_writes"] = static_cast<double>(storage_writes.load());
  state.counters["coalesced_frac"] =
      ops.load() == 0 ? 0.0
                      : 1.0 - static_cast<double>(storage_writes.load()) /
                                  static_cast<double>(ops.load());
}

BENCHMARK(BM_Coalescer)
    ->ArgsProduct({{0, 1}, {1, 16, 256}})
    ->ArgNames({"coalesce", "hot_keys"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace tierbase

BENCHMARK_MAIN();
