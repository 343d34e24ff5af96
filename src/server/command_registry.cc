#include "server/command_registry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "analytics/workload_analytics.h"

namespace tierbase {
namespace server {

namespace {
constexpr const char* kAnalyticsDisabled =
    "ERR analytics disabled (started with --no-analytics)";
}  // namespace

bool ParseArgInt(const Slice& arg, int64_t* out) {
  if (arg.empty() || arg.size() > 20) return false;
  char buf[24];
  memcpy(buf, arg.data(), arg.size());
  buf[arg.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  long long v = strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + arg.size()) return false;
  *out = v;
  return true;
}

bool UpperName(const Slice& name, char* buf, size_t cap) {
  if (name.size() >= cap) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    buf[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(name[i])));
  }
  buf[name.size()] = '\0';
  return true;
}

void AppendWrongArity(std::string* out, const char* upper_name) {
  std::string msg = "ERR wrong number of arguments for '";
  for (const char* c = upper_name; *c != '\0'; ++c) {
    msg.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*c))));
  }
  msg += "' command";
  AppendError(out, msg);
}

void AppendUnknownCommand(std::string* out, const std::vector<Slice>& args) {
  std::string msg = "ERR unknown command '";
  if (!args.empty()) {
    msg.append(args[0].data(), std::min<size_t>(args[0].size(), 64));
  }
  msg += "'";
  AppendError(out, msg);
}

void AppendStatusError(std::string* out, const Status& s) {
  if (s.IsInvalidArgument() &&
      s.message().find("wrong value type") != std::string::npos) {
    AppendError(out,
                "WRONGTYPE Operation against a key holding the wrong kind "
                "of value");
    return;
  }
  // Robustness contract: Unavailable and Busy keep their own error classes
  // on the wire so clients can tell "retry elsewhere/later" from a hard
  // error.
  if (s.IsUnavailable()) {
    AppendError(out, "UNAVAILABLE " + s.message());
    return;
  }
  if (s.IsBusy()) {
    AppendError(out, "BUSY " + s.message());
    return;
  }
  AppendError(out, "ERR " + s.ToString());
}

int CommandRegistryBase::Find(const Slice& name) const {
  char upper[16];
  if (!UpperName(name, upper, sizeof(upper))) return -1;
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (strcmp(upper, specs_[i].name) == 0) return static_cast<int>(i);
  }
  return -1;
}

void CommandRegistryBase::Ping(CommandCall& call) {
  if (call.args.size() == 2) {
    AppendBulk(call.out, call.args[1]);
  } else {
    AppendSimpleString(call.out, "PONG");
  }
}

void CommandRegistryBase::Quit(CommandCall& call) {
  AppendSimpleString(call.out, "OK");
  call.close_connection = true;
}

void CommandRegistryBase::Shutdown(CommandCall& call) {
  bool nosave = false;
  if (call.args.size() == 2) {
    if (!EqualsUpper(call.args[1], "NOSAVE")) {
      AppendWrongArity(call.out, "SHUTDOWN");
      return;
    }
    nosave = true;
  }
  // A polite shutdown must not lose acknowledged data: the drain hook (the
  // node's write-back flush and WAL sync) runs before the ack, and its
  // failure refuses the stop; SHUTDOWN NOSAVE forces it.
  if (!nosave && drain_) {
    Status drain = drain_();
    if (!drain.ok()) {
      AppendError(call.out, "ERR shutdown aborted, flush failed (" +
                                drain.ToString() +
                                "); SHUTDOWN NOSAVE forces");
      return;
    }
  }
  // Reply before stopping so a synchronous client sees the ack; the event
  // loop flushes pending output during teardown.
  AppendSimpleString(call.out, "OK");
  call.close_connection = true;
  call.shutdown_server = true;
}

void CommandRegistryBase::CommandList(CommandCall& call) {
  AppendArrayHeader(call.out, specs_.size());
  for (const CommandSpec& spec : specs_) {
    AppendArrayHeader(call.out, 6);
    std::string name(spec.name);
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    AppendBulk(call.out, name);
    AppendInteger(call.out, spec.arity());
    if (spec.flags & kCommandWrite) {
      AppendArrayHeader(call.out, 1);
      AppendSimpleString(call.out, "write");
    } else if (spec.keys.first != 0) {
      AppendArrayHeader(call.out, 1);
      AppendSimpleString(call.out, "readonly");
    } else {
      AppendArrayHeader(call.out, 0);
    }
    AppendInteger(call.out, spec.keys.first);
    AppendInteger(call.out, spec.keys.last);
    AppendInteger(call.out, spec.keys.step);
  }
}

void CommandRegistryBase::Info(CommandCall& call) {
  // Section filters are accepted but the full report is sent.
  std::string body;
  metrics_->RenderInfo(&body);
  AppendBulk(call.out, body);
}

void CommandRegistryBase::Metrics(CommandCall& call) {
  std::string body;
  metrics_->RenderPrometheus(&body);
  AppendBulk(call.out, body);
}

void CommandRegistryBase::Analytics(CommandCall& call) {
  const std::vector<Slice>& args = call.args;
  if (analytics_ == nullptr) {
    AppendError(call.out, kAnalyticsDisabled);
    return;
  }
  if (EqualsUpper(args[1], "MRC")) {
    // Whole-cache curve by default; ANALYTICS MRC <shard> narrows to one
    // reuse tracker (shard-local entry counts).
    int shard = -1;
    if (args.size() == 3) {
      int64_t v = 0;
      if (!ParseArgInt(args[2], &v) || v < 0 || v >= analytics_->shards()) {
        AppendError(call.out, "ERR shard index out of range");
        return;
      }
      shard = static_cast<int>(v);
    }
    AppendBulk(call.out, analytics::FormatMrcReport(analytics_->Mrc(shard),
                                                    analytics_->shards()));
    return;
  }
  if (EqualsUpper(args[1], "RESET")) {
    analytics_->Reset();
    AppendSimpleString(call.out, "OK");
    return;
  }
  AppendError(call.out, "ERR unknown ANALYTICS subcommand, try MRC|RESET");
}

void CommandRegistryBase::HotKeys(CommandCall& call) {
  if (analytics_ == nullptr) {
    AppendError(call.out, kAnalyticsDisabled);
    return;
  }
  int64_t k = 10;
  if (call.args.size() == 2 &&
      (!ParseArgInt(call.args[1], &k) || k <= 0 || k > 10'000)) {
    AppendError(call.out, "ERR value is not an integer or out of range");
    return;
  }
  // Flat [key, estimated-count, ...] pairs, hottest first. Counts are
  // estimated true counts in the current decay window.
  std::vector<analytics::HotKey> top =
      analytics_->TopKeys(static_cast<size_t>(k));
  AppendArrayHeader(call.out, top.size() * 2);
  for (const analytics::HotKey& h : top) {
    AppendBulk(call.out, h.key);
    AppendInteger(call.out, static_cast<int64_t>(h.count));
  }
}

}  // namespace server
}  // namespace tierbase
