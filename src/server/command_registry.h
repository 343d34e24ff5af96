// CommandRegistry: the one command table of every RESP binary — the data
// node (CommandTable), the proxy (ClusterProxy) and the coordinator
// (CoordinatorService). Each command is written once, as a CommandSpec
// (name, arity, write flag, Redis-style key spec) plus a handler:
//
//   * RegisterSharedCommands() adds PING, QUIT, SHUTDOWN, COMMAND, INFO,
//     METRICS, ANALYTICS and HOTKEYS over the binary's own MetricsRegistry,
//     its (nullable) WorkloadAnalytics and an optional SHUTDOWN drain hook;
//   * each binary then adds its own commands: the node its data plane and
//     replication vocabulary, the coordinator CLUSTER, the proxy the node's
//     keyed specs (which it forwards instead of executing);
//   * COMMAND is generated from the table: [name, arity, flags, first,
//     last, step] per entry, like Redis's.
//
// Key specs follow Redis (https://redis.io/docs/latest/develop/reference/
// key-specs/): args[first..last] by `step` are keys, a negative `last`
// counts from the end (-1 = the last argument), first == 0 = keyless. One
// walker, ForEachKey, serves cluster admission (-MOVED), SLOWLOG redaction
// and the proxy's routing.
//
// The registry is a CRTP base: `class Host : public CommandRegistry<Host>`.
// Handlers are plain member-function pointers of the host (the shared ones
// are members of the non-template base, which convert), so dispatch is one
// indirect call — no std::function and no allocation per command.

#ifndef TIERBASE_SERVER_COMMAND_REGISTRY_H_
#define TIERBASE_SERVER_COMMAND_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/perf_context.h"
#include "common/status.h"
#include "server/resp.h"

namespace tierbase {
namespace analytics {
class WorkloadAnalytics;
}  // namespace analytics

namespace server {

/// Per-connection perf-tracing state, owned by the dispatcher (the Server
/// keeps one per connection). Plain fields: only one batch per connection
/// is in flight, and consecutive batches are ordered through the executor
/// queue.
struct PerfState {
  bool enabled = false;
  metrics::PerfContext ctx;
};

/// Which arguments are keys (Redis key spec).
struct KeySpec {
  int first = 0;  // 0 = keyless.
  int last = 0;   // < 0 counts from the end: -1 = the last argument.
  int step = 0;
};

/// Calls fn(key) for each key in `args`; stops at the first false and
/// returns false.
template <class Fn>
bool ForEachKey(const KeySpec& keys, const std::vector<Slice>& args,
                Fn&& fn) {
  if (keys.first == 0) return true;
  const int argc = static_cast<int>(args.size());
  const int last = keys.last < 0 ? argc + keys.last : keys.last;
  for (int i = keys.first; i <= last && i < argc; i += keys.step) {
    if (!fn(args[i])) return false;
  }
  return true;
}

/// CommandSpec::flags: the command mutates (-READONLY on a replica).
constexpr uint8_t kCommandWrite = 1;

struct CommandSpec {
  const char* name;  // Upper case.
  int min_argc;      // Command name included.
  int max_argc;      // 0 = unbounded.
  uint8_t flags;
  KeySpec keys;

  /// The argument count is in range, and a key spec that runs to the last
  /// argument tiles it (MSET's key/value pairs).
  bool ArityOk(size_t argc) const {
    const int n = static_cast<int>(argc);
    return n >= min_argc && (max_argc == 0 || n <= max_argc) &&
           (keys.last >= 0 || keys.step <= 1 ||
            (n - keys.first) % keys.step == 0);
  }
  /// COMMAND's arity: N = exactly N arguments, -N = at least N.
  int arity() const { return min_argc == max_argc ? min_argc : -min_argc; }
};

/// One command's execution: arguments in, reply and connection effects
/// out.
struct CommandCall {
  const std::vector<Slice>& args;  // args[0] is the command name.
  std::string* out;
  PerfState* perf = nullptr;      // The connection's PERF state, if any.
  bool close_connection = false;  // QUIT, SHUTDOWN: close after the reply.
  bool shutdown_server = false;   // SHUTDOWN: stop every loop.
};

/// Strict signed-integer parse of a RESP argument (no trailing bytes, no
/// overflow).
bool ParseArgInt(const Slice& arg, int64_t* out);

/// Uppercases a command or subcommand name into `buf`; false if it does
/// not fit (so it cannot be one).
bool UpperName(const Slice& name, char* buf, size_t cap);

/// Appends "-ERR wrong number of arguments for '<name>' command".
void AppendWrongArity(std::string* out, const char* upper_name);

/// Appends "-ERR unknown command '<name>'".
void AppendUnknownCommand(std::string* out, const std::vector<Slice>& args);

/// Appends a `-...` RESP error translated from a Status (WrongType maps to
/// -WRONGTYPE, Unavailable to -UNAVAILABLE, Busy to -BUSY, everything else
/// to -ERR <code>: <msg>).
void AppendStatusError(std::string* out, const Status& s);

/// The host-independent half: the specs, lookup, and the shared commands.
class CommandRegistryBase {
 public:
  /// SHUTDOWN runs this (unless NOSAVE) before it acks; an error refuses
  /// the shutdown.
  using DrainHook = std::function<Status()>;

  /// Index of the command called `name` (any case), or -1.
  int Find(const Slice& name) const;
  size_t size() const { return specs_.size(); }
  const CommandSpec& spec(int index) const { return specs_[index]; }

 protected:
  CommandRegistryBase() = default;

  void SetShared(metrics::MetricsRegistry* metrics,
                 analytics::WorkloadAnalytics* analytics, DrainHook drain) {
    metrics_ = metrics;
    analytics_ = analytics;
    drain_ = std::move(drain);
  }

  // The shared commands (RegisterSharedCommands).
  void Ping(CommandCall& call);
  void Quit(CommandCall& call);
  void Shutdown(CommandCall& call);
  void CommandList(CommandCall& call);
  void Info(CommandCall& call);
  void Metrics(CommandCall& call);
  void Analytics(CommandCall& call);
  void HotKeys(CommandCall& call);

  std::vector<CommandSpec> specs_;

 private:
  metrics::MetricsRegistry* metrics_ = nullptr;
  analytics::WorkloadAnalytics* analytics_ = nullptr;
  DrainHook drain_;
};

template <class Host>
class CommandRegistry : public CommandRegistryBase {
 public:
  using Handler = void (Host::*)(CommandCall& call);
  struct Entry {
    CommandSpec spec;
    Handler handler;
  };

 protected:
  CommandRegistry() = default;

  /// Runs an arity-checked command's handler.
  void Run(int index, CommandCall& call) {
    (static_cast<Host*>(this)->*handlers_[index])(call);
  }

  /// Answers one command: unknown (index -1), arity error, or handler.
  void Execute(int index, CommandCall& call) {
    if (index < 0) {
      AppendUnknownCommand(call.out, call.args);
    } else if (!spec(index).ArityOk(call.args.size())) {
      AppendWrongArity(call.out, spec(index).name);
    } else {
      Run(index, call);
    }
  }

  /// Appends a command. `handler` may be null for a command the host
  /// never runs here (the proxy's forwarded ones).
  void Add(const CommandSpec& spec, Handler handler) {
    specs_.push_back(spec);
    handlers_.push_back(handler);
  }

  /// Registers the commands every binary answers. `analytics` may be null
  /// (analytics disabled); `drain` may be empty.
  void RegisterSharedCommands(metrics::MetricsRegistry* metrics,
                              analytics::WorkloadAnalytics* analytics,
                              DrainHook drain) {
    SetShared(metrics, analytics, std::move(drain));
    Add({"PING", 1, 2, 0, {}}, &CommandRegistry::Ping);
    Add({"QUIT", 1, 0, 0, {}}, &CommandRegistry::Quit);
    Add({"SHUTDOWN", 1, 2, 0, {}}, &CommandRegistry::Shutdown);
    Add({"COMMAND", 1, 0, 0, {}}, &CommandRegistry::CommandList);
    Add({"INFO", 1, 2, 0, {}}, &CommandRegistry::Info);
    Add({"METRICS", 1, 1, 0, {}}, &CommandRegistry::Metrics);
    Add({"ANALYTICS", 2, 3, 0, {}}, &CommandRegistry::Analytics);
    Add({"HOTKEYS", 1, 2, 0, {}}, &CommandRegistry::HotKeys);
  }

 private:
  std::vector<Handler> handlers_;
};

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_COMMAND_REGISTRY_H_
