#include <algorithm>
#include <array>
#include <map>

#include "src/sched/baselines.h"
#include "src/util/rng.h"

namespace crius {

// Gandiva packs jobs introspectively: placement ignores GPU heterogeneity
// (any type with room will do), and runtime profiling drives trial-and-error
// migration -- if moving a running job to another GPU type measurably
// improves its throughput, Gandiva migrates it. It never scales GPU counts.
ScheduleDecision GandivaScheduler::Schedule(const RoundContext& round) {
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  std::array<int, kNumGpuTypes> free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }

  std::vector<const JobState*> queued;
  std::vector<const JobState*> running;
  for (const JobState* js : jobs) {
    if (js->phase == JobPhase::kRunning) {
      running.push_back(js);
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

  // Introspective migration: the runtime observes each running job's actual
  // throughput (ground truth -- Gandiva profiles during execution) and tries
  // a limited number of type migrations per round.
  int migrations = 0;
  std::map<int64_t, Assignment> placed;
  for (const JobState* js : running) {
    Assignment a;
    a.type = js->gpu_type;
    a.ngpus = js->ngpus;
    if (migrations < kMigrationsPerRound) {
      const double current =
          oracle_->AdaptiveThroughput(js->job.spec, js->gpu_type, js->ngpus);
      GpuType best_type = js->gpu_type;
      double best_thr = current;
      for (GpuType type : AllGpuTypes()) {
        if (type == js->gpu_type || !cluster.HasType(type) ||
            free[static_cast<int>(type)] < js->ngpus) {
          continue;
        }
        const double thr = oracle_->AdaptiveThroughput(js->job.spec, type, js->ngpus);
        if (thr > best_thr * (1.0 + kMigrationGain)) {
          best_thr = thr;
          best_type = type;
        }
      }
      if (best_type != js->gpu_type) {
        free[static_cast<int>(js->gpu_type)] += js->ngpus;
        free[static_cast<int>(best_type)] -= js->ngpus;
        a.type = best_type;
        ++migrations;
      }
    }
    placed[js->job.id] = a;
  }

  // Placement: heterogeneity-blind -- GPU types are fungible to Gandiva, so
  // it takes an arbitrary (deterministically pseudo-random) type that can hold
  // the job; later introspection may migrate it. Mostly FIFO: suspend/resume
  // packing lets a few small jobs slip past a blocked head, but Gandiva does
  // not reorder the queue wholesale.
  int blocked = 0;
  for (const JobState* js : queued) {
    if (blocked > 4) {
      break;
    }
    std::vector<GpuType> fitting;
    for (GpuType type : AllGpuTypes()) {
      if (!cluster.HasType(type) || free[static_cast<int>(type)] < js->job.requested_gpus) {
        continue;
      }
      if (!view_.Launchable(js->job.spec, type, js->job.requested_gpus)) {
        continue;
      }
      fitting.push_back(type);
    }
    if (fitting.empty()) {
      ++blocked;
      continue;
    }
    const uint64_t pick = SplitMix64(static_cast<uint64_t>(js->job.id) * 0x9e3779b9ULL);
    const GpuType type = fitting[pick % fitting.size()];
    Assignment a;
    a.type = type;
    a.ngpus = js->job.requested_gpus;
    placed[js->job.id] = a;
    free[static_cast<int>(type)] -= a.ngpus;
  }

  return DiffAgainstRound(round, placed);
}

}  // namespace crius
