#include "src/hw/cluster.h"

#include <algorithm>

#include "src/util/check.h"

namespace crius {

int Allocation::total_gpus() const {
  int n = 0;
  for (const auto& [node, count] : node_gpus) {
    n += count;
  }
  return n;
}

void Cluster::AddNodes(GpuType type, int num_nodes, int gpus_per_node) {
  CRIUS_CHECK(num_nodes > 0);
  CRIUS_CHECK(gpus_per_node > 0);
  const int ti = static_cast<int>(type);
  CRIUS_CHECK_MSG(gpus_per_node_[ti] == 0 || gpus_per_node_[ti] == gpus_per_node,
                  "all nodes of one GPU type must have the same GPU count");
  gpus_per_node_[ti] = gpus_per_node;
  for (int i = 0; i < num_nodes; ++i) {
    NodeInfo node;
    node.id = static_cast<int>(nodes_.size());
    node.type = type;
    node.total_gpus = gpus_per_node;
    node.free_gpus = gpus_per_node;
    nodes_.push_back(node);
    total_[ti] += gpus_per_node;
    free_[ti] += gpus_per_node;
  }
}

int Cluster::TotalGpus(GpuType type) const {
  return total_[static_cast<int>(type)];
}

int Cluster::FreeGpus(GpuType type) const {
  return free_[static_cast<int>(type)];
}

int Cluster::TotalGpus() const {
  int n = 0;
  for (int t : total_) {
    n += t;
  }
  return n;
}

int Cluster::FreeGpus() const {
  int n = 0;
  for (int f : free_) {
    n += f;
  }
  return n;
}

int Cluster::UsableGpus(GpuType type) const {
  const int ti = static_cast<int>(type);
  return total_[ti] - failed_[ti];
}

int Cluster::UsableGpus() const {
  return TotalGpus() - FailedGpus();
}

int Cluster::FailedGpus() const {
  int n = 0;
  for (int f : failed_) {
    n += f;
  }
  return n;
}

int Cluster::MarkFailed(int node_id, int gpus) {
  CRIUS_CHECK(node_id >= 0 && static_cast<size_t>(node_id) < nodes_.size());
  NodeInfo& node = nodes_[node_id];
  const int want = gpus <= 0 ? node.free_gpus : gpus;
  const int take = std::min(want, node.free_gpus);
  node.free_gpus -= take;
  node.failed_gpus += take;
  const int ti = static_cast<int>(node.type);
  free_[ti] -= take;
  failed_[ti] += take;
  if (take > 0) {
    ++health_epoch_;
  }
  return take;
}

int Cluster::MarkRecovered(int node_id, int gpus) {
  CRIUS_CHECK(node_id >= 0 && static_cast<size_t>(node_id) < nodes_.size());
  NodeInfo& node = nodes_[node_id];
  const int want = gpus <= 0 ? node.failed_gpus : gpus;
  const int give = std::min(want, node.failed_gpus);
  node.failed_gpus -= give;
  node.free_gpus += give;
  const int ti = static_cast<int>(node.type);
  failed_[ti] -= give;
  free_[ti] += give;
  if (give > 0) {
    ++health_epoch_;
  }
  return give;
}

void Cluster::SetNodeSlowdown(int node_id, double factor) {
  CRIUS_CHECK(node_id >= 0 && static_cast<size_t>(node_id) < nodes_.size());
  CRIUS_CHECK_MSG(factor >= 1.0, "slowdown factor below 1.0");
  if (nodes_[node_id].slowdown != factor) {
    ++health_epoch_;
  }
  nodes_[node_id].slowdown = factor;
}

double Cluster::NodeSlowdown(int node_id) const {
  CRIUS_CHECK(node_id >= 0 && static_cast<size_t>(node_id) < nodes_.size());
  return nodes_[node_id].slowdown;
}

double Cluster::MaxSlowdown(const Allocation& alloc) const {
  double worst = 1.0;
  for (const auto& [id, count] : alloc.node_gpus) {
    (void)count;
    CRIUS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    worst = std::max(worst, nodes_[id].slowdown);
  }
  return worst;
}

int Cluster::GpusPerNode(GpuType type) const {
  return gpus_per_node_[static_cast<int>(type)];
}

bool Cluster::HasType(GpuType type) const {
  return total_[static_cast<int>(type)] > 0;
}

GroupTopology Cluster::TopologyFor(GpuType type) const {
  CRIUS_CHECK_MSG(HasType(type), "cluster has no " << GpuName(type) << " nodes");
  return GroupTopology::For(type, GpusPerNode(type));
}

std::optional<Allocation> Cluster::Allocate(GpuType type, int n) {
  CRIUS_CHECK(n > 0);
  const int ti = static_cast<int>(type);
  if (free_[ti] < n) {
    return std::nullopt;
  }

  // Candidate nodes of the type with free GPUs. Prefer fully free nodes (to
  // keep allocations contiguous), then nodes with the fewest free GPUs (to
  // limit fragmentation). Stable on node id for determinism.
  std::vector<int> candidates;
  for (const NodeInfo& node : nodes_) {
    if (node.type == type && node.free_gpus > 0) {
      candidates.push_back(node.id);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const NodeInfo& na = nodes_[a];
    const NodeInfo& nb = nodes_[b];
    // Healthy nodes before stragglers: a grant avoids advertised slowdowns
    // when capacity allows. No-op ordering when every node is at 1.0.
    if (na.slowdown != nb.slowdown) {
      return na.slowdown < nb.slowdown;
    }
    // "Fully free" = no allocations (failed devices don't count against it).
    const bool fa = na.free_gpus == na.total_gpus - na.failed_gpus;
    const bool fb = nb.free_gpus == nb.total_gpus - nb.failed_gpus;
    if (fa != fb) {
      return fa > fb;
    }
    if (na.free_gpus != nb.free_gpus) {
      // Among fully free nodes order does not matter; among partial nodes take
      // the emptiest-fitting (fewest free) first.
      return fa ? na.free_gpus > nb.free_gpus : na.free_gpus < nb.free_gpus;
    }
    return a < b;
  });

  Allocation alloc;
  alloc.type = type;
  int remaining = n;
  for (int id : candidates) {
    if (remaining == 0) {
      break;
    }
    NodeInfo& node = nodes_[id];
    const int take = std::min(node.free_gpus, remaining);
    node.free_gpus -= take;
    alloc.node_gpus.emplace_back(id, take);
    remaining -= take;
  }
  CRIUS_CHECK(remaining == 0);
  free_[ti] -= n;
  return alloc;
}

void Cluster::Release(const Allocation& alloc) {
  const int ti = static_cast<int>(alloc.type);
  for (const auto& [id, count] : alloc.node_gpus) {
    CRIUS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    NodeInfo& node = nodes_[id];
    CRIUS_CHECK(node.type == alloc.type);
    CRIUS_CHECK_MSG(node.free_gpus + count <= node.total_gpus - node.failed_gpus,
                    "double release on node " << id);
    node.free_gpus += count;
    free_[ti] += count;
  }
}

std::array<int, kNumGpuTypes> Cluster::FreeByType() const {
  return free_;
}

Cluster MakePhysicalTestbed() {
  Cluster c;
  c.AddNodes(GpuType::kA40, /*num_nodes=*/16, /*gpus_per_node=*/2);
  c.AddNodes(GpuType::kA10, /*num_nodes=*/16, /*gpus_per_node=*/2);
  return c;
}

Cluster MakeSimulatedCluster() {
  Cluster c;
  c.AddNodes(GpuType::kA100, /*num_nodes=*/80, /*gpus_per_node=*/4);
  c.AddNodes(GpuType::kA40, /*num_nodes=*/160, /*gpus_per_node=*/2);
  c.AddNodes(GpuType::kA10, /*num_nodes=*/160, /*gpus_per_node=*/2);
  c.AddNodes(GpuType::kV100, /*num_nodes=*/20, /*gpus_per_node=*/16);
  return c;
}

Cluster MakeMotivationCluster() {
  Cluster c;
  c.AddNodes(GpuType::kA100, /*num_nodes=*/1, /*gpus_per_node=*/4);
  c.AddNodes(GpuType::kV100, /*num_nodes=*/1, /*gpus_per_node=*/4);
  return c;
}

bool ParseClusterSpec(const std::string& spec, Cluster* out, std::string* error) {
  Cluster c;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string part = spec.substr(pos, end - pos);
    const size_t colon = part.find(':');
    const size_t x = part.find('x', colon == std::string::npos ? 0 : colon);
    if (colon == std::string::npos || x == std::string::npos || x <= colon + 1) {
      *error = "bad cluster spec part '" + part + "' (want TYPE:NODESxGPUS)";
      return false;
    }
    const std::string type_name = part.substr(0, colon);
    const std::optional<GpuType> type = FindGpuType(type_name);
    if (!type.has_value()) {
      *error = "unknown GPU type name: " + type_name;
      return false;
    }
    // A positive int spelled out in full, or 0 for anything else.
    auto parse_positive = [](const std::string& s) {
      size_t parsed = 0;
      int v = 0;
      try {
        v = std::stoi(s, &parsed);
      } catch (const std::exception&) {
        return 0;
      }
      return parsed == s.size() && v > 0 ? v : 0;
    };
    const int num_nodes = parse_positive(part.substr(colon + 1, x - colon - 1));
    if (num_nodes == 0) {
      *error = "bad node count in '" + part + "'";
      return false;
    }
    const int gpus_per_node = parse_positive(part.substr(x + 1));
    if (gpus_per_node == 0) {
      *error = "bad GPUs-per-node in '" + part + "'";
      return false;
    }
    c.AddNodes(*type, num_nodes, gpus_per_node);
    pos = end + 1;
  }
  if (c.TotalGpus() == 0) {
    *error = "empty cluster spec";
    return false;
  }
  *out = std::move(c);
  return true;
}

Cluster ParseClusterSpec(const std::string& spec) {
  Cluster c;
  std::string error;
  CRIUS_CHECK_MSG(ParseClusterSpec(spec, &c, &error), error);
  return c;
}

bool MakeNamedCluster(const std::string& spec, Cluster* out, std::string* error) {
  if (spec == "testbed") {
    *out = MakePhysicalTestbed();
  } else if (spec == "simulated") {
    *out = MakeSimulatedCluster();
  } else if (spec == "motivation") {
    *out = MakeMotivationCluster();
  } else {
    return ParseClusterSpec(spec, out, error);
  }
  return true;
}

Cluster MakeNamedCluster(const std::string& spec) {
  Cluster c;
  std::string error;
  CRIUS_CHECK_MSG(MakeNamedCluster(spec, &c, &error), error);
  return c;
}

std::string ClusterSpecString(const Cluster& cluster) {
  std::string out;
  for (GpuType type : AllGpuTypes()) {
    if (!cluster.HasType(type)) {
      continue;
    }
    const int per_node = cluster.GpusPerNode(type);
    const int nodes = cluster.TotalGpus(type) / per_node;
    if (!out.empty()) {
      out += ",";
    }
    out += GpuName(type) + ":" + std::to_string(nodes) + "x" + std::to_string(per_node);
  }
  return out;
}

}  // namespace crius
