#include <algorithm>
#include <array>
#include <map>

#include "src/sched/baselines.h"

namespace crius {

ScheduleDecision FcfsScheduler::Schedule(const RoundContext& round) {
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  std::map<int64_t, Assignment> target;
  std::array<int, kNumGpuTypes> free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }

  // Running jobs are never touched.
  std::vector<const JobState*> queued;
  for (const JobState* js : jobs) {
    if (js->phase == JobPhase::kRunning) {
      Assignment a;
      a.type = js->gpu_type;
      a.ngpus = js->ngpus;
      target[js->job.id] = a;
      free[static_cast<int>(js->gpu_type)] -= js->ngpus;
    } else {
      queued.push_back(js);
    }
  }
  std::stable_sort(queued.begin(), queued.end(), [](const JobState* a, const JobState* b) {
    if (a->job.submit_time != b->job.submit_time) {
      return a->job.submit_time < b->job.submit_time;
    }
    return a->job.id < b->job.id;
  });

  // Strict arrival order with head-of-line blocking: the first job that does
  // not fit stalls the queue (Kubernetes/Yarn-style FIFO).
  for (const JobState* js : queued) {
    const GpuType type = js->job.requested_type;
    if (free[static_cast<int>(type)] < js->job.requested_gpus ||
        !view_.Launchable(js->job.spec, type, js->job.requested_gpus)) {
      break;
    }
    Assignment a;
    a.type = type;
    a.ngpus = js->job.requested_gpus;
    target[js->job.id] = a;
    free[static_cast<int>(type)] -= a.ngpus;
  }
  return DiffAgainstRound(round, target);
}

}  // namespace crius
