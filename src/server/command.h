// Command dispatch: maps RESP command names onto the TierBase engine API.
//
// A batch of pipelined commands is executed in one call. Runs of
// consecutive plain GETs (and plain two-argument SETs) inside a batch are
// coalesced into a single KvEngine::MultiGet / MultiSet, so a client that
// pipelines N reads pays for one cache lock round per shard instead of N —
// the same batch paths MGET/MSET and the batched YCSB runner use. Replies
// are emitted in command order regardless of coalescing.
//
// String commands go through TierBase (and therefore observe the caching
// policy: WAL logging, write-through acknowledgement, write-back dirty
// marking). Rich-type and TTL commands operate on the cache tier engine,
// which is where those types live in this reproduction.
//
// Telemetry. The table owns this server's MetricsRegistry: every command
// family gets a LatencyHistogram (measured dispatch -> reply, including
// cluster admission), commands slower than the SLOWLOG threshold enter the
// slow log with value arguments redacted to key names, and INFO / METRICS
// render straight from the registry. PERF ON|OFF|GET drives the
// per-connection PerfContext (see common/perf_context.h); the state
// travels in via PerfState because the table is shared across executor
// threads and must stay stateless per request.

#ifndef TIERBASE_SERVER_COMMAND_H_
#define TIERBASE_SERVER_COMMAND_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/perf_context.h"
#include "core/tierbase.h"
#include "server/resp.h"
#include "server/slowlog.h"

namespace tierbase {
namespace cluster_net {
class NodeClusterState;
}  // namespace cluster_net

namespace server {

/// Per-connection perf-tracing state, owned by the dispatcher (the Server
/// keeps one per connection) and handed to ExecuteBatch. Plain fields:
/// only one batch per connection is in flight, and consecutive batches are
/// ordered through the executor queue.
struct PerfState {
  bool enabled = false;
  metrics::PerfContext ctx;
};

/// Batch timing measured upstream of execution (event loop + dispatch
/// queue), attributed to the parse / queue_wait perf stages.
struct BatchTiming {
  uint64_t parse_micros = 0;
  /// Clock::Real()->NowMicros() when the dispatcher submitted the batch.
  uint64_t dispatched_at_micros = 0;
};

/// Where a table command's keys sit, from its spec flags: the routing
/// view front ends that forward by key (the proxy) use instead of a
/// command list of their own.
enum class KeyLayout : uint8_t {
  kNone,   // Keyless, answered locally, or not a table command.
  kFirst,  // args[1] (GET, SET, INCR, HSET, ...).
  kAll,    // args[1..] (MGET, DEL, EXISTS).
  kPairs,  // args[1], args[3], ... (MSET).
};

struct CommandKeys {
  const char* name = nullptr;  // Upper-case table name; null if unknown.
  KeyLayout layout = KeyLayout::kNone;
  size_t min_argc = 0;
  size_t max_argc = 0;  // 0 = unbounded.

  /// Arity (and MSET's key/value pairing) as the table checks it.
  bool ArityOk(size_t argc) const {
    return argc >= min_argc && (max_argc == 0 || argc <= max_argc) &&
           (layout != KeyLayout::kPairs || argc % 2 == 1);
  }
};

class CommandTable {
 public:
  /// Looks `name` up (any case) in the dispatch table.
  static CommandKeys KeysOf(const Slice& name);

  /// `db` is not owned and must outlive the table.
  explicit CommandTable(TierBase* db);

  /// Attaches cluster membership (not owned; must outlive the table).
  /// Enables the CLUSTER/REPLICAOF/REPLPULL/REPLSNAPSHOT/WAIT vocabulary,
  /// -MOVED checks against the installed routing snapshot, -READONLY
  /// rejection of writes while a replica, and oplog recording of applied
  /// string mutations. Call before the server starts dispatching.
  void set_cluster(cluster_net::NodeClusterState* cluster) {
    cluster_ = cluster;
  }

  /// Disables hot-path telemetry (per-command clocking, histogram
  /// recording, SLOWLOG). The registry still renders INFO/METRICS; the
  /// histograms just stay empty. (--no-telemetry)
  void set_telemetry_enabled(bool enabled) { telemetry_ = enabled; }
  bool telemetry_enabled() const { return telemetry_; }

  /// This server's instrument registry (INFO/METRICS source). The Server
  /// object registers its connection/executor/robustness instruments here.
  metrics::MetricsRegistry* registry() { return &registry_; }
  SlowLog* slowlog() { return &slowlog_; }

  /// Executes a pipelined batch, appending one reply per command to *out.
  /// Sets *close_connection for QUIT/SHUTDOWN (reply still sent first) and
  /// *shutdown_server for SHUTDOWN. `perf` (nullable) carries the
  /// connection's PERF state; `timing` (nullable) the upstream stage
  /// timings.
  void ExecuteBatch(const std::vector<RespCommand>& cmds, std::string* out,
                    bool* close_connection, bool* shutdown_server,
                    PerfState* perf = nullptr,
                    const BatchTiming* timing = nullptr);

  // Dispatch statistics (INFO "# Stats").
  uint64_t commands() const { return commands_->value(); }
  uint64_t batches() const { return batches_->value(); }
  /// Commands served through a coalesced MultiGet/MultiSet run (pipelined
  /// GET/SET trains, ≥ 2 commands per run).
  uint64_t coalesced_commands() const { return coalesced_->value(); }
  uint64_t errors() const { return errors_->value(); }

 private:
  struct Spec {
    const char* name;
    size_t min_argc;
    size_t max_argc;  // 0 = unbounded.
    void (CommandTable::*handler)(const RespCommand&, std::string*);
    uint8_t flags;
  };
  static const Spec kSpecs[];
  static const size_t kNumSpecs;

  /// Times one command, records its family histogram and the slow log,
  /// then delegates to ExecuteOneImpl.
  void ExecuteOne(const RespCommand& cmd, std::string* out,
                  bool* close_connection, bool* shutdown_server,
                  PerfState* perf);
  /// Dispatches without telemetry bookkeeping. Sets *spec_index to the
  /// kSpecs row used, or -1 for pre-table commands (PING/QUIT/...).
  void ExecuteOneImpl(const RespCommand& cmd, std::string* out,
                      bool* close_connection, bool* shutdown_server,
                      PerfState* perf, int* spec_index);

  // Individual command implementations (cmd.args already arity-checked
  // against the table entry).
  void Get(const RespCommand& cmd, std::string* out);
  void Set(const RespCommand& cmd, std::string* out);
  void Del(const RespCommand& cmd, std::string* out);
  void Exists(const RespCommand& cmd, std::string* out);
  void MGet(const RespCommand& cmd, std::string* out);
  void MSet(const RespCommand& cmd, std::string* out);
  void Expire(const RespCommand& cmd, std::string* out);
  void Ttl(const RespCommand& cmd, std::string* out);
  void Incr(const RespCommand& cmd, std::string* out);
  void HSet(const RespCommand& cmd, std::string* out);
  void HGet(const RespCommand& cmd, std::string* out);
  void LPush(const RespCommand& cmd, std::string* out);
  void LRange(const RespCommand& cmd, std::string* out);
  void ZAdd(const RespCommand& cmd, std::string* out);
  void ZRange(const RespCommand& cmd, std::string* out);
  void Info(const RespCommand& cmd, std::string* out);
  void Scan(const RespCommand& cmd, std::string* out);
  void DbSize(const RespCommand& cmd, std::string* out);
  void FlushAll(const RespCommand& cmd, std::string* out);
  void Cluster(const RespCommand& cmd, std::string* out);
  void ReplicaOf(const RespCommand& cmd, std::string* out);
  void ReplPull(const RespCommand& cmd, std::string* out);
  void ReplSnapshot(const RespCommand& cmd, std::string* out);
  void Wait(const RespCommand& cmd, std::string* out);
  void SlowLogCmd(const RespCommand& cmd, std::string* out);
  void Latency(const RespCommand& cmd, std::string* out);
  void Metrics(const RespCommand& cmd, std::string* out);
  void Analytics(const RespCommand& cmd, std::string* out);
  void HotKeys(const RespCommand& cmd, std::string* out);

  /// Registers the registry entries (sections, stats callbacks, and one
  /// latency histogram per command family). Called once from the ctor.
  void RegisterInstruments();

  /// Records one command family's latency sample: `micros` observed by
  /// `count` commands (a coalesced train shares the train's elapsed time).
  /// `spec_index` -1 = the pre-table/unknown family.
  void RecordLatency(int spec_index, uint64_t micros, uint64_t count);
  /// Logs a slow command with its arguments redacted to keys.
  void RecordSlow(const RespCommand& cmd, uint8_t flags, uint64_t micros);
  /// Logs a slow coalesced train as one redacted entry.
  void RecordSlowTrain(const std::vector<RespCommand>& cmds, size_t begin,
                       size_t end, uint64_t micros);

  /// Cluster gate shared by every keyed handler: emits -READONLY for
  /// writes on a replica and -MOVED for misrouted keys. Returns false when
  /// an error was emitted (the command must not execute).
  bool ClusterAdmits(const RespCommand& cmd, uint8_t flags, std::string* out);

  /// Executes cmds[begin..end) single GETs as one MultiGet.
  void CoalescedGets(const std::vector<RespCommand>& cmds, size_t begin,
                     size_t end, std::string* out);
  /// Executes cmds[begin..end) plain SETs as one MultiSet.
  void CoalescedSets(const std::vector<RespCommand>& cmds, size_t begin,
                     size_t end, std::string* out);

  TierBase* db_;
  cluster_net::NodeClusterState* cluster_ = nullptr;
  bool telemetry_ = true;

  metrics::MetricsRegistry registry_;
  SlowLog slowlog_;

  // Dispatch counters (registry-owned; "# Stats").
  metrics::Counter* commands_ = nullptr;
  metrics::Counter* batches_ = nullptr;
  metrics::Counter* coalesced_ = nullptr;
  metrics::Counter* errors_ = nullptr;

  // One histogram per kSpecs row, plus [kNumSpecs] for the pre-table /
  // unknown family ("cmd_other_latency_us").
  std::vector<metrics::LatencyHistogram*> cmd_hist_;
  int get_spec_index_ = -1;  // Rows used by the coalesced trains.
  int set_spec_index_ = -1;

  // One TierBase::Stats snapshot per registry render, taken by a
  // pre-render hook so the ~30 per-key callbacks don't each re-aggregate.
  // Conceptually GUARDED_BY(registry_.mu_): written and read only inside
  // registry renders, which the registry serializes.
  TierBase::Stats info_stats_;
};

/// Appends "-ERR wrong number of arguments for '<name>' command".
void AppendWrongArity(std::string* out, const char* upper_name);

/// Appends a `-...` RESP error translated from a Status (WrongType maps to
/// -WRONGTYPE, Unavailable to -UNAVAILABLE, Busy to -BUSY, everything else
/// to -ERR <code>: <msg>).
void AppendStatusError(std::string* out, const Status& s);

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_COMMAND_H_
