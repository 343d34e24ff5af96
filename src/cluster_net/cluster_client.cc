#include "cluster_net/cluster_client.h"
#include "common/mutex.h"
#include "common/perf_context.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace tierbase::cluster_net {

namespace {

/// The reply says our routing snapshot is stale: -MOVED from a node with a
/// newer epoch, -READONLY from a not-yet promoted replica, -CLUSTERDOWN.
bool IsStaleRouteReply(const server::RespValue& reply) {
  return reply.IsError() && (reply.str.rfind("MOVED", 0) == 0 ||
                             reply.str.rfind("READONLY", 0) == 0 ||
                             reply.str.rfind("CLUSTERDOWN", 0) == 0);
}

/// What a KvEngine-shaped wrapper returns for an error reply.
Status ReplyError(const server::RespValue& reply) {
  return Status::InvalidArgument(reply.str);
}

uint64_t ParseInfoField(const std::string& info, const char* field) {
  size_t pos = info.find(field);
  if (pos == std::string::npos) return 0;
  return strtoull(info.c_str() + pos + strlen(field), nullptr, 10);
}

}  // namespace

Result<std::unique_ptr<NetClusterClient>> NetClusterClient::Connect(
    Options options) {
  if (options.coordinators.empty()) {
    return Status::InvalidArgument("no coordinator endpoints");
  }
  std::unique_ptr<NetClusterClient> client(
      new NetClusterClient(std::move(options)));
  common::MutexLock lock(&client->mu_);
  client->coordinator_.set_transport(client->options_.transport);
  Status s = client->RefreshRoutingLocked();
  if (!s.ok()) return s;
  return client;
}

Status NetClusterClient::CoordinatorCallLocked(const std::vector<Slice>& args,
                                               server::RespValue* reply) {
  Status last = Status::IOError("no coordinator reachable");
  for (size_t attempt = 0; attempt < options_.coordinators.size() + 1;
       ++attempt) {
    if (!coordinator_.connected()) {
      // Round-robin over the configured coordinator endpoints.
      const std::string& spec =
          options_.coordinators[attempt % options_.coordinators.size()];
      std::string host;
      uint16_t port = 0;
      last = server::ParseHostPort(spec, &host, &port);
      if (!last.ok()) continue;
      last = coordinator_.Connect(host, port,
                                  options_.coordinator_timeout_micros);
      if (!last.ok()) continue;
    }
    last = coordinator_.Call(args, reply);
    if (last.ok()) return Status::OK();
    coordinator_.Close();
  }
  return last;
}

Status NetClusterClient::RefreshRoutingLocked() {
  server::RespValue reply;
  TIERBASE_RETURN_IF_ERROR(CoordinatorCallLocked({"CLUSTER", "NODES"}, &reply));
  if (reply.type != server::RespValue::Type::kBulkString) {
    return Status::IOError("malformed CLUSTER NODES reply");
  }
  WireRouting wire;
  TIERBASE_RETURN_IF_ERROR(WireRouting::Parse(reply.str, &wire));
  routing_ = std::move(wire);
  router_ = routing_.BuildRouter();
  reported_.clear();
  ++stats_.route_refreshes;
  return Status::OK();
}

void NetClusterClient::ReportFailureLocked(const std::string& node_id) {
  conns_.erase(node_id);
  // One report per node per routing snapshot: a dead node shows up once
  // per failed sub-batch key otherwise (the refresh clears the set).
  if (!reported_.insert(node_id).second) return;
  ++stats_.failures_reported;
  server::RespValue reply;
  CoordinatorCallLocked({"CLUSTER", "FAIL", node_id}, &reply);
}

common::CircuitBreaker* NetClusterClient::BreakerLocked(
    const std::string& node_id) {
  auto it = breakers_.find(node_id);
  if (it == breakers_.end()) {
    common::CircuitBreakerOptions bo = options_.breaker;
    if (bo.clock == nullptr) bo.clock = options_.clock;
    it = breakers_
             .emplace(node_id, std::make_unique<common::CircuitBreaker>(bo))
             .first;
  }
  return it->second.get();
}

void NetClusterClient::BackoffLocked(common::RetryState* retry) {
  uint64_t micros = retry->NextBackoffMicros();
  if (micros == 0) return;
  ++stats_.backoff_waits;
  const Clock* clock =
      options_.clock != nullptr ? options_.clock : Clock::Real();
  clock->SleepMicros(micros);
}

server::Client* NetClusterClient::MasterConnLocked(const std::string& shard,
                                                   Status* why,
                                                   std::string* node_id,
                                                   bool* fast_fail) {
  if (fast_fail != nullptr) *fast_fail = false;
  const NodeRecord* master = routing_.MasterOfShard(shard);
  if (master == nullptr) {
    *why = Status::Unavailable("no healthy master for shard " + shard);
    node_id->clear();
    return nullptr;
  }
  *node_id = master->id;
  auto it = conns_.find(master->id);
  // An established connection is served without consulting the breaker:
  // an open breaker means dialing fails, and a live socket is the best
  // evidence that is no longer true (its ops will half-close the loop via
  // RecordSuccess/RecordFailure either way).
  if (it != conns_.end() && it->second->connected()) return it->second.get();
  common::CircuitBreaker* breaker = BreakerLocked(master->id);
  if (!breaker->Allow()) {
    *why = Status::Unavailable("circuit open for node " + master->id);
    if (fast_fail != nullptr) *fast_fail = true;
    return nullptr;
  }
  auto conn = std::make_unique<server::Client>();
  conn->set_transport(options_.transport);
  *why = conn->Connect(master->host, master->port,
                       options_.node_timeout_micros);
  if (!why->ok()) {
    breaker->RecordFailure();
    conns_.erase(master->id);
    return nullptr;
  }
  server::Client* raw = conn.get();
  conns_[master->id] = std::move(conn);
  return raw;
}

void NetClusterClient::ForwardBatch(
    const std::vector<std::vector<Slice>>& cmds, const std::vector<Slice>& keys,
    std::vector<server::RespValue>* replies, std::vector<Status>* statuses) {
  replies->assign(cmds.size(), server::RespValue());
  statuses->assign(cmds.size(), Status::Unavailable("not attempted"));
  if (cmds.empty()) return;
  metrics::ScopedPerfStage fanout_stage(metrics::PerfContext::kNetFanout);
  common::MutexLock lock(&mu_);

  // Indices still to send, ascending: a retry re-sends a node's failed
  // tail in caller order.
  std::vector<size_t> pending(cmds.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  common::RetryState retry(options_.retry, options_.clock, options_.seed);
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    if (attempt > 0) BackoffLocked(&retry);
    // Plan: per healthy-master node, the pending commands it owns.
    struct Group {
      server::Client* conn;
      std::vector<size_t> indices;
    };
    std::map<std::string, Group> groups;  // By node id.
    std::vector<size_t> again;  // Retried after a routing refresh.
    for (size_t i : pending) {
      std::string shard = router_.Route(keys[i]);
      Status why;
      std::string node_id;
      bool fast_fail = false;
      server::Client* conn =
          shard.empty()
              ? nullptr
              : MasterConnLocked(shard, &why, &node_id, &fast_fail);
      if (conn == nullptr) {
        (*statuses)[i] = shard.empty()
                             ? Status::Unavailable("no shards in the ring")
                             : why;
        // Breaker open: this command fails fast and finally. Reporting or
        // refreshing again would just churn the coordinator; the breaker's
        // half-open probe is the designated way back. Other nodes'
        // commands proceed untouched.
        if (fast_fail) continue;
        if (!node_id.empty()) ReportFailureLocked(node_id);
        again.push_back(i);
        continue;
      }
      Group& g = groups[node_id];
      g.conn = conn;
      g.indices.push_back(i);
    }

    // A connection-level failure (the node is likely down) fails the
    // node's commands from `from` on.
    auto fail_tail = [&](const std::string& node_id, Group* g, size_t from,
                         const Status& s) {
      for (size_t k = from; k < g->indices.size(); ++k) {
        (*statuses)[g->indices[k]] = s;
        again.push_back(g->indices[k]);
      }
      BreakerLocked(node_id)->RecordFailure();
      ReportFailureLocked(node_id);  // Closes g->conn.
      g->conn = nullptr;
    };

    // Scatter: ship every node's commands, one flush per node, before
    // reading any reply, so the nodes execute concurrently.
    for (auto& [node_id, g] : groups) {
      for (size_t i : g.indices) g.conn->Append(cmds[i]);
      Status s = g.conn->Flush();
      if (!s.ok()) {
        fail_tail(node_id, &g, 0, s);
        continue;
      }
      ++stats_.node_batches[node_id];
      stats_.node_commands[node_id] += g.indices.size();
    }

    // Gather: each node's replies arrive in the order its commands went.
    for (auto& [node_id, g] : groups) {
      if (g.conn == nullptr) continue;  // Flush already failed.
      const uint64_t wait_start = Clock::Real()->NowMicros();
      for (size_t k = 0; k < g.indices.size(); ++k) {
        const size_t i = g.indices[k];
        server::RespValue& reply = (*replies)[i];
        Status s = g.conn->ReadReply(&reply);
        if (!s.ok()) {
          fail_tail(node_id, &g, k, s);
          break;
        }
        if (IsStaleRouteReply(reply)) {
          // -MOVED / -READONLY / -CLUSTERDOWN: refresh, no failure report.
          ++stats_.moved_redirects;
          (*statuses)[i] = Status::Unavailable(reply.str);
          again.push_back(i);
          continue;
        }
        // Other error replies (WRONGTYPE, arity) are the command's answer.
        (*statuses)[i] = Status::OK();
      }
      stats_.node_fanout_micros[node_id] +=
          Clock::Real()->NowMicros() - wait_start;
      // The node answered: breaker success even for "stale route" or an
      // application error.
      if (g.conn != nullptr) BreakerLocked(node_id)->RecordSuccess();
    }

    if (again.empty()) return;
    std::sort(again.begin(), again.end());
    pending.swap(again);
    RefreshRoutingLocked();
  }
}

Status NetClusterClient::Forward(const std::vector<Slice>& args,
                                 const Slice& key,
                                 server::RespValue* reply) {
  std::vector<server::RespValue> replies;
  std::vector<Status> statuses;
  ForwardBatch({args}, {key}, &replies, &statuses);
  *reply = std::move(replies[0]);
  return statuses[0];
}

Status NetClusterClient::Set(const Slice& key, const Slice& value) {
  std::vector<Status> statuses;
  MultiSet({key}, {value}, &statuses);
  return statuses[0];
}

Status NetClusterClient::Get(const Slice& key, std::string* value) {
  std::vector<std::string> values;
  std::vector<Status> statuses;
  MultiGet({key}, &values, &statuses);
  if (statuses[0].ok()) *value = std::move(values[0]);
  return statuses[0];
}

Status NetClusterClient::Delete(const Slice& key) {
  server::RespValue reply;
  TIERBASE_RETURN_IF_ERROR(Forward({"DEL", key}, key, &reply));
  return reply.IsError() ? ReplyError(reply) : Status::OK();
}

// The node's CommandTable coalesces a sub-batch's consecutive GETs (SETs)
// back into one MultiGet (MultiSet) train.
void NetClusterClient::MultiGet(const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  std::vector<std::vector<Slice>> cmds;
  cmds.reserve(keys.size());
  for (const Slice& key : keys) cmds.push_back({"GET", key});
  std::vector<server::RespValue> replies;
  ForwardBatch(cmds, keys, &replies, statuses);
  values->assign(keys.size(), std::string());
  for (size_t i = 0; i < keys.size(); ++i) {
    const server::RespValue& reply = replies[i];
    if (!(*statuses)[i].ok()) continue;
    if (reply.IsError()) {
      (*statuses)[i] = ReplyError(reply);
    } else if (reply.IsNull()) {
      (*statuses)[i] = Status::NotFound("");
    } else if (reply.type == server::RespValue::Type::kBulkString) {
      (*values)[i] = std::move(replies[i].str);
    } else {
      (*statuses)[i] = Status::IOError("malformed GET reply");
    }
  }
}

void NetClusterClient::MultiSet(const std::vector<Slice>& keys,
                                const std::vector<Slice>& values,
                                std::vector<Status>* statuses) {
  std::vector<std::vector<Slice>> cmds;
  cmds.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    cmds.push_back({"SET", keys[i], values[i]});
  }
  std::vector<server::RespValue> replies;
  ForwardBatch(cmds, keys, &replies, statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    if ((*statuses)[i].ok() && replies[i].IsError()) {
      (*statuses)[i] = ReplyError(replies[i]);
    }
  }
}

UsageStats NetClusterClient::GetUsage() const {
  UsageStats total;
  common::MutexLock lock(&mu_);
  auto* self = const_cast<NetClusterClient*>(this);
  for (const NodeRecord& node : routing_.nodes) {
    if (node.is_replica || !node.healthy) continue;
    Status why;
    std::string node_id;
    server::Client* conn = self->MasterConnLocked(node.shard, &why, &node_id);
    if (conn == nullptr) continue;
    server::RespValue reply;
    if (!conn->Call({"INFO"}, &reply).ok() ||
        reply.type != server::RespValue::Type::kBulkString) {
      continue;
    }
    total.memory_bytes += ParseInfoField(reply.str, "bytes_cached:");
    total.pmem_bytes += ParseInfoField(reply.str, "pmem_bytes:");
    total.keys += ParseInfoField(reply.str, "keys_cached:");
  }
  return total;
}

Status NetClusterClient::WaitIdle() {
  common::MutexLock lock(&mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    server::RespValue reply;
    if (it->second->connected() &&
        it->second->Call({"PING"}, &reply).ok()) {
      ++it;
    } else {
      it = conns_.erase(it);
    }
  }
  return Status::OK();
}

uint64_t NetClusterClient::epoch() const {
  common::MutexLock lock(&mu_);
  return routing_.epoch;
}

NetClusterClient::Stats NetClusterClient::GetStats() const {
  common::MutexLock lock(&mu_);
  Stats stats = stats_;
  for (const auto& [id, breaker] : breakers_) {
    stats.breaker_trips += breaker->trips();
    stats.breaker_fast_fails += breaker->fast_fails();
    stats.breaker_states[id] = breaker->state_name();
  }
  return stats;
}

}  // namespace tierbase::cluster_net
