#include "cluster_net/routing.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tierbase::cluster_net {

std::string WireRouting::Serialize() const {
  std::string out;
  char header[64];
  snprintf(header, sizeof(header), "epoch:%llu vnodes:%d\n",
           static_cast<unsigned long long>(epoch), virtual_nodes);
  out += header;
  for (const NodeRecord& n : nodes) {
    out += n.id;
    out += ' ';
    out += n.endpoint();
    out += ' ';
    out += n.is_replica ? "replica" : "master";
    out += ' ';
    out += n.shard;
    out += ' ';
    out += n.healthy ? "up" : "down";
    out += '\n';
  }
  return out;
}

Status WireRouting::Parse(const std::string& text, WireRouting* out) {
  *out = WireRouting();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty routing payload");
  }
  unsigned long long epoch = 0;
  int vnodes_at = -1;
  if (sscanf(line.c_str(), "epoch:%llu vnodes:%n", &epoch, &vnodes_at) != 1 ||
      vnodes_at < 0) {
    return Status::Corruption("bad routing header: " + line);
  }
  // strtol, not %d: it reports overflow instead of wrapping into range.
  const char* vnodes_digits = line.c_str() + vnodes_at;
  char* vnodes_end = nullptr;
  errno = 0;
  long vnodes = strtol(vnodes_digits, &vnodes_end, 10);
  if (vnodes_end == vnodes_digits || *vnodes_end != '\0' || errno != 0 ||
      vnodes <= 0 || vnodes > kMaxVirtualNodes) {
    return Status::Corruption("bad routing header: " + line);
  }
  out->epoch = epoch;
  out->virtual_nodes = static_cast<int>(vnodes);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    NodeRecord rec;
    std::string endpoint, role, health;
    if (!(fields >> rec.id >> endpoint >> role >> rec.shard >> health)) {
      return Status::Corruption("bad routing line: " + line);
    }
    size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::Corruption("bad endpoint: " + endpoint);
    }
    rec.host = endpoint.substr(0, colon);
    const char* digits = endpoint.c_str() + colon + 1;
    char* end = nullptr;
    unsigned long port = strtoul(digits, &end, 10);
    if (end == digits || *end != '\0' || port == 0 || port > 65535) {
      return Status::Corruption("bad port in endpoint: " + endpoint);
    }
    rec.port = static_cast<uint16_t>(port);
    if (role == "replica") {
      rec.is_replica = true;
    } else if (role != "master") {
      return Status::Corruption("bad role: " + role);
    }
    if (health == "down") {
      rec.healthy = false;
    } else if (health != "up") {
      return Status::Corruption("bad health: " + health);
    }
    out->nodes.push_back(std::move(rec));
  }
  return Status::OK();
}

Router WireRouting::BuildRouter() const {
  Router router(virtual_nodes);
  for (const NodeRecord& n : nodes) {
    if (!n.is_replica && n.healthy) router.AddInstance(n.shard);
  }
  return router;
}

const NodeRecord* WireRouting::FindNode(const std::string& id) const {
  for (const NodeRecord& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const NodeRecord* WireRouting::MasterOfShard(const std::string& shard) const {
  for (const NodeRecord& n : nodes) {
    if (!n.is_replica && n.healthy && n.shard == shard) return &n;
  }
  return nullptr;
}

const NodeRecord* WireRouting::ReplicaOfShard(const std::string& shard) const {
  for (const NodeRecord& n : nodes) {
    if (n.is_replica && n.healthy && n.shard == shard) return &n;
  }
  return nullptr;
}

}  // namespace tierbase::cluster_net
