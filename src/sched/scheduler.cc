#include "src/sched/scheduler.h"

#include <algorithm>

#include "src/util/check.h"

namespace crius {

const char* MigrationKindName(MigrationKind kind) {
  switch (kind) {
    case MigrationKind::kShrink:
      return "shrink";
    case MigrationKind::kGrow:
      return "grow";
    case MigrationKind::kResplit:
      return "resplit";
    case MigrationKind::kTypeSwap:
      return "type_swap";
  }
  return "?";
}

bool RoundContext::has_health_events() const {
  return std::any_of(events_.begin(), events_.end(),
                     [](const RoundEvent& e) { return e.is_health_event(); });
}

std::map<int64_t, Assignment> ResolvedTarget(const RoundContext& round,
                                             const ScheduleDecision& decision) {
  std::vector<int64_t> preempted = decision.preempted;
  std::sort(preempted.begin(), preempted.end());
  std::map<int64_t, Assignment> target = decision.assignments;
  for (const JobState* js : round.jobs()) {
    if (js->phase == JobPhase::kRunning &&
        !std::binary_search(preempted.begin(), preempted.end(), js->job.id)) {
      target.emplace(js->job.id, HeldGrant(*js));  // no-op when re-assigned
    }
  }
  return target;
}

ScheduleDecision DiffAgainstRound(const RoundContext& round,
                                  const std::map<int64_t, Assignment>& target) {
  ScheduleDecision decision;
  size_t matched = 0;
  for (const JobState* js : round.jobs()) {
    const auto it = target.find(js->job.id);
    matched += it != target.end() ? 1 : 0;
    if (js->phase != JobPhase::kRunning) {
      if (it != target.end()) {
        decision.assignments.emplace(*it);
      }
    } else if (it == target.end()) {
      decision.preempted.push_back(js->job.id);
    } else if (it->second != HeldGrant(*js)) {
      decision.assignments.emplace(*it);
    }
  }
  CRIUS_CHECK_MSG(matched == target.size(), "a target names a job outside the round");
  return decision;
}

double ReferenceThroughput(PerformanceOracle& oracle, const Cluster& cluster,
                           const TrainingJob& job) {
  double ref = 0.0;
  if (cluster.HasType(job.requested_type)) {
    ref = oracle.AdaptiveThroughput(job.spec, job.requested_type, job.requested_gpus);
  }
  if (ref <= 0.0) {
    for (GpuType type : AllGpuTypes()) {
      if (!cluster.HasType(type)) {
        continue;
      }
      ref = std::max(ref, oracle.AdaptiveThroughput(job.spec, type, job.requested_gpus));
    }
  }
  return ref;
}

}  // namespace crius
