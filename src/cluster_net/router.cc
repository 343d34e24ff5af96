#include "cluster_net/router.h"

#include <algorithm>

#include "common/hash.h"

namespace tierbase::cluster_net {

Router::Router(int virtual_nodes_per_instance)
    : virtual_nodes_(virtual_nodes_per_instance < 1
                         ? 1
                         : virtual_nodes_per_instance) {}

void Router::AddInstance(const std::string& instance_id) {
  if (Contains(instance_id)) return;
  instances_.push_back(instance_id);
  for (int v = 0; v < virtual_nodes_; ++v) {
    std::string point = instance_id + "#" + std::to_string(v);
    ring_.emplace(Hash64(point.data(), point.size()), instance_id);
  }
}

bool Router::Contains(const std::string& instance_id) const {
  return std::find(instances_.begin(), instances_.end(), instance_id) !=
         instances_.end();
}

std::string Router::Route(const Slice& key) const {
  if (ring_.empty()) return {};
  uint64_t h = Hash64(key);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // Wrap around the ring.
  return it->second;
}

}  // namespace tierbase::cluster_net
