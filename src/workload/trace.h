// Operation traces: the currency of the cost optimization framework
// (paper §5.3 — "record a representative period of workload from production
// instances … replay the recorded real-world key-value operation traces").
//
// Since Ant Group's production traces are proprietary, SynthesizeTrace
// builds traces to the published statistics of the two case studies:
//   * User Info Service  (§6.5 case 1): ~32 reads per write, Zipfian
//     popularity, long average re-access interval.
//   * Capital Reconciliation (§6.5 case 2): ~1:1 read:write with strong
//     temporal skew — recent data hot, long-tail occasionally read
//     (modeled with a "latest"-shifted window over an insert stream).

#ifndef TIERBASE_WORKLOAD_TRACE_H_
#define TIERBASE_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace workload {

struct TraceOp {
  OpType type;
  uint64_t key_index;
};

struct Trace {
  std::vector<TraceOp> ops;
  uint64_t key_space = 0;       // Distinct key indexes referenced.
  DatasetOptions dataset;        // Value source for writes.

  double ReadFraction() const;
};

enum class TraceProfile {
  kUserInfo,        // Case 1: read-heavy, Zipfian.
  kReconciliation,  // Case 2: 1:1, temporal skew.
};

struct SynthesizeOptions {
  TraceProfile profile = TraceProfile::kUserInfo;
  uint64_t num_ops = 100000;
  uint64_t key_space = 20000;
  double zipfian_theta = 0.99;
  uint64_t seed = 31;
  DatasetOptions dataset;
};

Trace SynthesizeTrace(const SynthesizeOptions& options);

/// Binary trace file I/O (record/replay across processes).
Status WriteTrace(const Trace& trace, const std::string& path);
Result<Trace> ReadTrace(const std::string& path);

/// Replays a trace against an engine. `threads` claim ops in trace order
/// from a shared cursor, and no op starts more than 1024 positions past the
/// oldest unfinished one. Keys must have been pre-loaded where the trace
/// expects it.
RunResult ReplayTrace(KvEngine* engine, const Trace& trace, int threads,
                      double target_qps = 0);

/// Average re-access interval of keys in the trace, in "operations between
/// accesses" — multiplied by the replay period to give the seconds-based
/// interval that the break-even analysis (Table 3) consumes.
double AverageReuseDistanceOps(const Trace& trace);

}  // namespace workload
}  // namespace tierbase

#endif  // TIERBASE_WORKLOAD_TRACE_H_
