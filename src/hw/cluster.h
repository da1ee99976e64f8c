// Heterogeneous GPU cluster: nodes, capacity tracking, and allocation.
//
// A cluster is a set of nodes, each holding `gpus_per_node` GPUs of a single
// type (Table 1). Schedulers reason in (GpuType, gpu count) units -- the same
// granularity the paper's Cells use -- and the cluster maps a grant onto
// concrete nodes, preferring fully free nodes so allocations stay contiguous.

#ifndef SRC_HW_CLUSTER_H_
#define SRC_HW_CLUSTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/hw/gpu.h"
#include "src/hw/interconnect.h"

namespace crius {

struct NodeInfo {
  int id = 0;
  GpuType type = GpuType::kA100;
  int total_gpus = 0;
  int free_gpus = 0;
  // Devices currently failed (unallocatable). total = free + allocated + failed.
  int failed_gpus = 0;
  // Straggler factor the node advertises: realized iteration time of any job
  // touching this node is multiplied by the worst factor it spans. 1.0 =
  // healthy.
  double slowdown = 1.0;
};

// A concrete grant of GPUs on specific nodes; all of one GPU type.
struct Allocation {
  GpuType type = GpuType::kA100;
  // (node id, gpus taken on that node).
  std::vector<std::pair<int, int>> node_gpus;

  int total_gpus() const;
  bool empty() const { return node_gpus.empty(); }
  // Number of distinct nodes used.
  int num_nodes() const { return static_cast<int>(node_gpus.size()); }
};

class Cluster {
 public:
  Cluster() = default;

  // Adds `num_nodes` nodes, each with `gpus_per_node` GPUs of `type`. All
  // nodes of one type must share one gpus_per_node (Table-1 topology).
  void AddNodes(GpuType type, int num_nodes, int gpus_per_node);

  int TotalGpus(GpuType type) const;
  int FreeGpus(GpuType type) const;
  int TotalGpus() const;
  int FreeGpus() const;

  // Physical capacity minus currently failed devices: the capacity schedulers
  // may plan against. Equal to TotalGpus when the cluster is healthy.
  int UsableGpus(GpuType type) const;
  int UsableGpus() const;
  int FailedGpus() const;

  // GPUs per node for `type`; 0 if the cluster has no such nodes.
  int GpusPerNode(GpuType type) const;

  // True if the cluster contains at least one node of `type`.
  bool HasType(GpuType type) const;

  // Communication topology for groups of `type` GPUs in this cluster.
  GroupTopology TopologyFor(GpuType type) const;

  // Allocates `n` GPUs of `type`, preferring fully free nodes. Returns
  // std::nullopt (cluster unchanged) if fewer than n GPUs are free.
  std::optional<Allocation> Allocate(GpuType type, int n);

  // Returns a previously granted allocation. Aborts on double release.
  void Release(const Allocation& alloc);

  // --- Health state (src/fault degraded-mode support) ------------------------

  // Marks up to `gpus` currently free devices on `node_id` as failed
  // (`gpus` <= 0 fails every free device). Allocated devices cannot fail
  // directly: the simulator kills the jobs holding them first, which frees
  // them. Returns the number of devices actually failed.
  int MarkFailed(int node_id, int gpus);

  // Returns up to `gpus` failed devices on `node_id` to service (`gpus` <= 0
  // recovers all). Returns the number of devices actually recovered.
  int MarkRecovered(int node_id, int gpus);

  // Sets the node's straggler factor (>= 1.0; 1.0 = healthy).
  void SetNodeSlowdown(int node_id, double factor);
  double NodeSlowdown(int node_id) const;

  // Monotonic counter bumped by every health mutation (MarkFailed,
  // MarkRecovered, SetNodeSlowdown). Schedulers key cached capacity- and
  // health-dependent state (e.g. Cell rankings) off this epoch so it is
  // invalidated the moment the usable cluster changes.
  uint64_t health_epoch() const { return health_epoch_; }

  // Process-unique, nonzero id of this Cluster object, reassigned on copy:
  // two Cluster objects never share an identity even when one is a copy of
  // the other or reuses the other's freed address. Pairs with health_epoch()
  // so cached scheduler state keyed on (identity, epoch) cannot survive a
  // swap to a different cluster whose epoch coincidentally matches.
  uint64_t identity() const { return identity_.value; }

  // Worst straggler factor across the nodes of `alloc` (synchronous training
  // runs at the slowest node's pace). 1.0 for an empty allocation.
  double MaxSlowdown(const Allocation& alloc) const;

  // Free GPU counts per type, indexed by static_cast<int>(GpuType).
  std::array<int, kNumGpuTypes> FreeByType() const;

  const std::vector<NodeInfo>& nodes() const { return nodes_; }

 private:
  // Fresh-on-construction, fresh-on-copy tag backing identity(). The copy
  // operations deliberately mint a new id instead of copying the source's.
  struct InstanceId {
    InstanceId() : value(next.fetch_add(1, std::memory_order_relaxed)) {}
    InstanceId(const InstanceId&) : InstanceId() {}
    InstanceId& operator=(const InstanceId&) { return *this; }
    uint64_t value;
    static inline std::atomic<uint64_t> next{1};
  };

  std::vector<NodeInfo> nodes_;
  std::array<int, kNumGpuTypes> total_{};
  std::array<int, kNumGpuTypes> free_{};
  std::array<int, kNumGpuTypes> failed_{};
  std::array<int, kNumGpuTypes> gpus_per_node_{};
  uint64_t health_epoch_ = 0;
  InstanceId identity_;
};

// The 64-GPU physical testbed of §8.1/§8.3: 16 nodes x 2 A40 + 16 nodes x 2 A10.
Cluster MakePhysicalTestbed();

// The 1,280-GPU simulated cluster of Table 1:
// 80 x 4 A100, 160 x 2 A40, 160 x 2 A10, 20 x 16 V100.
Cluster MakeSimulatedCluster();

// The small motivation setup of §2.2 (Figs. 1 and 3): one 4-GPU A100 NVLink
// node and one 4-GPU V100 NVLink node.
Cluster MakeMotivationCluster();

// Parses a cluster description of the form "A100:80x4,A40:160x2" (type :
// node-count x gpus-per-node, comma separated). Aborts on malformed specs.
Cluster ParseClusterSpec(const std::string& spec);
// The fallible form: on a malformed spec returns false with *error naming the
// bad part, and leaves *out untouched.
bool ParseClusterSpec(const std::string& spec, Cluster* out, std::string* error);

// Resolves a --cluster flag value: the named presets ("testbed", "simulated",
// "motivation") or any ParseClusterSpec string. One implementation shared by
// crius_sim, crius_serve, and the session replay path, so every entry point
// accepts the same vocabulary. Aborts on malformed specs.
Cluster MakeNamedCluster(const std::string& spec);
// The fallible form, for validating a flag up front: false with *error as
// ParseClusterSpec sets it.
bool MakeNamedCluster(const std::string& spec, Cluster* out, std::string* error);

// Renders a cluster back into the ParseClusterSpec format.
std::string ClusterSpecString(const Cluster& cluster);

}  // namespace crius

#endif  // SRC_HW_CLUSTER_H_
