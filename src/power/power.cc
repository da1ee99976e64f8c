#include "src/power/power.h"

#include "src/util/check.h"

namespace crius {

const std::vector<DvfsState>& KnownDvfsStates() {
  static const std::vector<DvfsState> states = {
      DvfsState{"nominal", 1.0, 1.0},
      DvfsState{"balanced", 0.80, 0.92},
      DvfsState{"powersave", 0.62, 0.80},
  };
  return states;
}

bool IsKnownDvfsState(const std::string& name) {
  for (const DvfsState& s : KnownDvfsStates()) {
    if (s.name == name) {
      return true;
    }
  }
  return false;
}

DvfsState DvfsStateByName(const std::string& name) {
  for (const DvfsState& s : KnownDvfsStates()) {
    if (s.name == name) {
      return s;
    }
  }
  CRIUS_UNREACHABLE("unknown DVFS state '" + name + "' (want nominal | balanced | powersave)");
}

PowerModel PowerModel::Default(const std::string& dvfs_name) {
  PowerModel model;
  // Public TDP-class figures for the Table-1 types; idle figures are the
  // parked-clock floors reported for the same boards.
  model.active_watts[static_cast<int>(GpuType::kA100)] = 400.0;
  model.active_watts[static_cast<int>(GpuType::kA40)] = 300.0;
  model.active_watts[static_cast<int>(GpuType::kA10)] = 150.0;
  model.active_watts[static_cast<int>(GpuType::kV100)] = 300.0;
  model.idle_watts[static_cast<int>(GpuType::kA100)] = 55.0;
  model.idle_watts[static_cast<int>(GpuType::kA40)] = 30.0;
  model.idle_watts[static_cast<int>(GpuType::kA10)] = 20.0;
  model.idle_watts[static_cast<int>(GpuType::kV100)] = 40.0;
  model.dvfs = DvfsStateByName(dvfs_name);
  return model;
}

double CellWatts(const PowerModel& model, GpuType type, int ngpus) {
  return model.ActiveWatts(type) * static_cast<double>(ngpus);
}

PowerLedger::PowerLedger(PowerModel model, const Cluster& cluster) : model_(model) {
  nodes_.reserve(cluster.nodes().size());
  for (const NodeInfo& node : cluster.nodes()) {
    NodeUsage usage;
    usage.node_id = node.id;
    usage.type = node.type;
    usage.total_gpus = node.total_gpus;
    usage.busy_gpus = node.total_gpus - node.free_gpus - node.failed_gpus;
    usage.failed_gpus = node.failed_gpus;
    nodes_.push_back(usage);
  }
}

void PowerLedger::AdvanceTo(double t) {
  const double dt = t - last_time_;
  if (dt <= 0.0) {
    return;
  }
  for (NodeUsage& n : nodes_) {
    const int idle = n.total_gpus - n.failed_gpus - n.busy_gpus;
    CRIUS_CHECK_MSG(idle >= 0, "node " << n.node_id << " over-committed: busy=" << n.busy_gpus
                                       << " failed=" << n.failed_gpus
                                       << " total=" << n.total_gpus);
    const double active_j =
        static_cast<double>(n.busy_gpus) * model_.ActiveWatts(n.type) * dt;
    const double idle_j = static_cast<double>(idle) * model_.IdleWatts(n.type) * dt;
    n.joules += active_j + idle_j;
    active_joules_ += active_j;
    idle_joules_ += idle_j;
  }
  last_time_ = t;
}

void PowerLedger::OnAllocate(const Allocation& alloc) {
  for (const auto& [node_id, gpus] : alloc.node_gpus) {
    CRIUS_CHECK(node_id >= 0 && node_id < static_cast<int>(nodes_.size()));
    nodes_[static_cast<size_t>(node_id)].busy_gpus += gpus;
  }
}

void PowerLedger::OnRelease(const Allocation& alloc) {
  for (const auto& [node_id, gpus] : alloc.node_gpus) {
    CRIUS_CHECK(node_id >= 0 && node_id < static_cast<int>(nodes_.size()));
    NodeUsage& n = nodes_[static_cast<size_t>(node_id)];
    n.busy_gpus -= gpus;
    CRIUS_CHECK_MSG(n.busy_gpus >= 0, "node " << node_id << " released more than allocated");
  }
}

void PowerLedger::SyncNode(const Cluster& cluster, int node_id) {
  CRIUS_CHECK(node_id >= 0 && node_id < static_cast<int>(nodes_.size()));
  nodes_[static_cast<size_t>(node_id)].failed_gpus =
      cluster.nodes()[static_cast<size_t>(node_id)].failed_gpus;
}

void PowerLedger::SettleSegment(int64_t job_id, GpuType type, double held_gpu_seconds,
                                double useful_gpu_seconds) {
  const double watts = model_.ActiveWatts(type);
  job_joules_[job_id] += held_gpu_seconds * watts;
  useful_joules_ += useful_gpu_seconds * watts;
}

double PowerLedger::CurrentDrawWatts() const {
  double watts = 0.0;
  for (const NodeUsage& n : nodes_) {
    const int idle = n.total_gpus - n.failed_gpus - n.busy_gpus;
    watts += static_cast<double>(n.busy_gpus) * model_.ActiveWatts(n.type) +
             static_cast<double>(idle) * model_.IdleWatts(n.type);
  }
  return watts;
}

double PowerLedger::JobJoules(int64_t job_id) const {
  const auto it = job_joules_.find(job_id);
  return it == job_joules_.end() ? 0.0 : it->second;
}

}  // namespace crius
