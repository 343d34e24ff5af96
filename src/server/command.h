// CommandTable: the data node's commands, registered in the one
// CommandRegistry (command_registry.h) next to the shared PING/INFO/...
// vocabulary, and mapped onto the TierBase engine API.
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
// In cluster mode every keyed command is admitted by its key spec first:
// -READONLY for writes on a replica, -MOVED for a key another shard owns.
//
// Telemetry. The table owns this server's MetricsRegistry: every command
// gets a LatencyHistogram (measured dispatch -> reply, including cluster
// admission), commands slower than the SLOWLOG threshold enter the slow
// log with arguments redacted to the key spec's keys, and INFO / METRICS
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
#include "core/tierbase.h"
#include "server/command_registry.h"
#include "server/resp.h"
#include "server/slowlog.h"

namespace tierbase {
namespace cluster_net {
class NodeClusterState;
}  // namespace cluster_net

namespace server {

/// Batch timing measured upstream of execution (event loop + dispatch
/// queue), attributed to the parse / queue_wait perf stages.
struct BatchTiming {
  uint64_t parse_micros = 0;
  /// Clock::Real()->NowMicros() when the dispatcher submitted the batch.
  uint64_t dispatched_at_micros = 0;
};

class CommandTable : public CommandRegistry<CommandTable> {
 public:
  /// The node's own commands (everything but the shared ones), in
  /// registration order. The proxy forwards the keyed ones by these specs.
  static const std::vector<Entry>& DataCommands();

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
  /// Times one command, records its histogram and the slow log, then
  /// delegates to ExecuteOneImpl.
  void ExecuteOne(CommandCall& call);
  /// Dispatches without telemetry bookkeeping; returns the registry index
  /// used, or -1 for an unknown command.
  int ExecuteOneImpl(CommandCall& call);

  // Individual command implementations (call.args already arity-checked
  // against the spec and admitted by the cluster gate).
  void Get(CommandCall& call);
  void Set(CommandCall& call);
  void Del(CommandCall& call);
  void Exists(CommandCall& call);
  void MGet(CommandCall& call);
  void MSet(CommandCall& call);
  void Expire(CommandCall& call);
  void Ttl(CommandCall& call);
  void Incr(CommandCall& call);
  void HSet(CommandCall& call);
  void HGet(CommandCall& call);
  void LPush(CommandCall& call);
  void LRange(CommandCall& call);
  void ZAdd(CommandCall& call);
  void ZRange(CommandCall& call);
  void Scan(CommandCall& call);
  void DbSize(CommandCall& call);
  void FlushAll(CommandCall& call);
  void Cluster(CommandCall& call);
  void ReplicaOf(CommandCall& call);
  void ReplPull(CommandCall& call);
  void ReplSnapshot(CommandCall& call);
  void Wait(CommandCall& call);
  void SlowLogCmd(CommandCall& call);
  void Latency(CommandCall& call);
  void Perf(CommandCall& call);

  /// Registers the metrics registry entries (sections, stats callbacks,
  /// and one latency histogram per registered command). Called once from
  /// the ctor, after the commands.
  void RegisterInstruments();

  /// Records one command's latency sample: `micros` observed by `count`
  /// commands (a coalesced train shares the train's elapsed time). `index`
  /// -1 = an unknown command.
  void RecordLatency(int index, uint64_t micros, uint64_t count);
  /// Logs a slow command with its arguments redacted to its keys.
  void RecordSlow(const std::vector<Slice>& args, int index, uint64_t micros);
  /// Logs a slow coalesced train as one redacted entry.
  void RecordSlowTrain(const std::vector<RespCommand>& cmds, size_t begin,
                       size_t end, uint64_t micros);

  /// Cluster gate shared by every keyed handler: emits -READONLY for
  /// writes on a replica and -MOVED for misrouted keys. Returns false when
  /// an error was emitted (the command must not execute).
  bool ClusterAdmits(const std::vector<Slice>& args, const CommandSpec& spec,
                     std::string* out);

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

  // One histogram per registered command, plus a last one for unknown
  // commands ("cmd_other_latency_us").
  std::vector<metrics::LatencyHistogram*> cmd_hist_;
  int get_index_ = -1;  // Commands the coalesced trains stand for.
  int set_index_ = -1;

  // One TierBase::Stats snapshot per registry render, taken by a
  // pre-render hook so the ~30 per-key callbacks don't each re-aggregate.
  // Conceptually GUARDED_BY(registry_.mu_): written and read only inside
  // registry renders, which the registry serializes.
  TierBase::Stats info_stats_;
};

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_COMMAND_H_
