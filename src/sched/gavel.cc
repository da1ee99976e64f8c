#include <algorithm>
#include <array>
#include <map>

#include "src/sched/baselines.h"

namespace crius {

// Gavel assigns each job to the GPU type maximizing its dp-profiled
// throughput (heterogeneity-aware throughput-maximization policy), never
// scaling GPU counts. Jobs whose dp-only plan fits nowhere are scheduled with
// an uninformed neutral view. Running jobs may be reassigned to a better type
// when the dp view shows a clear win.
ScheduleDecision GavelScheduler::Schedule(const RoundContext& round) {
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  std::map<int64_t, Assignment> target;
  std::array<int, kNumGpuTypes> free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }

  // Normalized dp-view throughput of `js` on `type`; 0 if it cannot launch,
  // a neutral 0.5 if dp profiling has no data (OOM under pure dp).
  auto view_score = [&](const JobState* js, GpuType type) -> double {
    if (!cluster.HasType(type) || !view_.Launchable(js->job.spec, type, js->job.requested_gpus)) {
      return 0.0;
    }
    double best_anywhere = 0.0;
    for (GpuType t : AllGpuTypes()) {
      if (!cluster.HasType(t)) {
        continue;
      }
      const auto thr = view_.Throughput(js->job.spec, t, js->job.requested_gpus);
      if (thr.has_value()) {
        best_anywhere = std::max(best_anywhere, *thr);
      }
    }
    const auto thr = view_.Throughput(js->job.spec, type, js->job.requested_gpus);
    if (!thr.has_value() || best_anywhere <= 0.0) {
      return 0.5;  // dp profile unavailable: heterogeneity-blind fallback
    }
    return *thr / best_anywhere;
  };

  std::vector<const JobState*> active;
  for (const JobState* js : jobs) {
    if (js->phase == JobPhase::kRunning || js->phase == JobPhase::kQueued) {
      active.push_back(js);
    }
  }
  // Gavel re-solves the whole assignment each round. Running jobs are placed
  // first (they hold checkpointable state; evicting them for a newcomer's
  // preferred type would churn restarts) and get a stickiness bonus so
  // reassignments only happen on clear dp-view wins.
  std::stable_sort(active.begin(), active.end(), [](const JobState* a, const JobState* b) {
    const bool ra = a->phase == JobPhase::kRunning;
    const bool rb = b->phase == JobPhase::kRunning;
    if (ra != rb) {
      return ra > rb;
    }
    if (a->job.submit_time != b->job.submit_time) {
      return a->job.submit_time < b->job.submit_time;
    }
    return a->job.id < b->job.id;
  });

  for (const JobState* js : active) {
    const int n = js->job.requested_gpus;
    GpuType best_type = js->job.requested_type;
    double best_score = -1.0;
    for (GpuType type : AllGpuTypes()) {
      if (!cluster.HasType(type) || free[static_cast<int>(type)] < n) {
        continue;
      }
      double score = view_score(js, type);
      if (score <= 0.0) {
        continue;
      }
      if (js->phase == JobPhase::kRunning) {
        if (type == js->gpu_type) {
          score *= 1.0 + kReassignGain;  // stickiness: avoid restart churn
        }
      }
      if (score > best_score) {
        best_score = score;
        best_type = type;
      }
    }
    if (best_score <= 0.0) {
      continue;  // waits this round
    }
    Assignment a;
    a.type = best_type;
    a.ngpus = n;
    target[js->job.id] = a;
    free[static_cast<int>(best_type)] -= n;
  }
  return DiffAgainstRound(round, target);
}

}  // namespace crius
