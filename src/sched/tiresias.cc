#include <algorithm>
#include <array>
#include <map>

#include "src/sched/baselines.h"
#include "src/util/units.h"

namespace crius {

namespace {

int QueueLevel(double attained_gpu_seconds) {
  int level = 0;
  for (double threshold : TiresiasScheduler::kLevelThresholdsGpuHours) {
    if (attained_gpu_seconds > threshold * kHour) {
      ++level;
    }
  }
  return level;
}

}  // namespace

ScheduleDecision TiresiasScheduler::Schedule(const RoundContext& round) {
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();

  // Attained GPU-service so far, in GPU-seconds. Tiresias tracks executed
  // GPU-time; completed iterations times the per-iteration GPU-time at the
  // requested shape reconstructs it whether or not the job currently holds
  // GPUs (a preempted job must keep its attained service or the levels
  // oscillate and the scheduler thrashes).
  auto attained = [&](const JobState& js) {
    const double thr = oracle_->AdaptiveThroughput(js.job.spec, js.job.requested_type,
                                                   js.job.requested_gpus);
    if (thr <= 0.0) {
      return js.iters_done;
    }
    const double iter_time = static_cast<double>(js.job.spec.global_batch) / thr;
    return js.iters_done * iter_time * static_cast<double>(js.job.requested_gpus);
  };

  // All active jobs compete; priority = (queue level asc, submit asc).
  std::vector<const JobState*> active;
  for (const JobState* js : jobs) {
    if (js->phase == JobPhase::kQueued || js->phase == JobPhase::kRunning) {
      active.push_back(js);
    }
  }
  std::stable_sort(active.begin(), active.end(), [&](const JobState* a, const JobState* b) {
    const int la = QueueLevel(attained(*a));
    const int lb = QueueLevel(attained(*b));
    if (la != lb) {
      return la < lb;
    }
    if (a->job.submit_time != b->job.submit_time) {
      return a->job.submit_time < b->job.submit_time;
    }
    return a->job.id < b->job.id;
  });

  // Preemptive gang admission in priority order at the requested shape.
  std::map<int64_t, Assignment> target;
  std::array<int, kNumGpuTypes> free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }
  for (const JobState* js : active) {
    const GpuType type = js->job.requested_type;
    const int n = js->job.requested_gpus;
    if (free[static_cast<int>(type)] < n ||
        !view_.Launchable(js->job.spec, type, n)) {
      continue;  // skipped this round; may preempt back in later
    }
    Assignment a;
    a.type = type;
    a.ngpus = n;
    target[js->job.id] = a;
    free[static_cast<int>(type)] -= n;
  }
  return DiffAgainstRound(round, target);
}

}  // namespace crius
