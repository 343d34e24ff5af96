// Router: consistent-hash ring mapping keys to shard ids (§3 "client
// tier" / "cache tier" sharding). Virtual nodes smooth the key distribution
// so that dropping one shard only remaps the keys it owned (~1/N of the
// keyspace), matching the even-sharding assumption of the cost model
// (Definition 1). Every cluster participant builds its Router from the same
// WireRouting snapshot (routing.h), so they all agree on key ownership.

#ifndef TIERBASE_CLUSTER_NET_ROUTER_H_
#define TIERBASE_CLUSTER_NET_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/slice.h"

namespace tierbase::cluster_net {

class Router {
 public:
  explicit Router(int virtual_nodes_per_instance = 64);

  /// Adds `instance_id` to the ring; no-op if already present.
  void AddInstance(const std::string& instance_id);

  bool Contains(const std::string& instance_id) const;
  size_t num_instances() const { return instances_.size(); }

  /// Returns the owning instance id, or empty string if the ring is empty.
  std::string Route(const Slice& key) const;

 private:
  int virtual_nodes_;
  // hash point -> instance id.
  std::map<uint64_t, std::string> ring_;
  std::vector<std::string> instances_;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_ROUTER_H_
