// The in-process half of a traced run: the workload's op stream replayed
// through ParseRequests -> ElasticExecutor::Submit ->
// CommandTable::ExecuteBatch on a TierBase opened over a timing storage
// adapter, with spans recorded around the calls from this benchmark's own
// code (nothing inside the library is instrumented).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

// Replays `w`'s stream for `seed` in-process for about `seconds`, writes
// every span to `spans_path` (TSV) and returns the per-layer metrics
// measured in-process (names as in BENCHMARK.json's per_layer list).
std::map<std::string, double> TraceInProcess(const Workload& w, uint64_t seed,
                                             double seconds,
                                             const std::string& dir,
                                             const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
