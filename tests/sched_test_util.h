// Shared helpers for scheduler unit tests: builds JobState populations,
// resolves decisions to the full target they stand for, and validates its
// capacity invariants.

#ifndef TESTS_SCHED_TEST_UTIL_H_
#define TESTS_SCHED_TEST_UTIL_H_

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/sched/scheduler.h"

namespace crius {

// A scheduler's decision and the full target it resolves to over its round:
// scheduler tests assert on the target, which names every placed job.
struct Resolved {
  ScheduleDecision decision;
  std::map<int64_t, Assignment> target;
};

// Runs one round of `scheduler` and resolves its decision (ResolvedTarget)
// while the round's jobs are alive.
inline Resolved Resolve(Scheduler& scheduler, const RoundContext& round) {
  ScheduleDecision decision = scheduler.Schedule(round);
  std::map<int64_t, Assignment> target = ResolvedTarget(round, decision);
  return Resolved{std::move(decision), std::move(target)};
}

class SchedTestBase : public ::testing::Test {
 protected:
  explicit SchedTestBase(Cluster cluster)
      : cluster_(std::move(cluster)), oracle_(cluster_, 42) {}

  JobState* AddQueued(int64_t id, const ModelSpec& spec, int requested_gpus,
                      GpuType requested_type, double submit = 0.0, int64_t iterations = 1000) {
    auto state = std::make_unique<JobState>();
    state->job.id = id;
    state->job.spec = spec;
    state->job.requested_gpus = requested_gpus;
    state->job.requested_type = requested_type;
    state->job.submit_time = submit;
    state->job.iterations = iterations;
    state->phase = JobPhase::kQueued;
    states_.push_back(std::move(state));
    return states_.back().get();
  }

  JobState* AddRunning(int64_t id, const ModelSpec& spec, int ngpus, GpuType type,
                       int nstages = 0, int requested_gpus = 0) {
    JobState* state = AddQueued(id, spec, requested_gpus > 0 ? requested_gpus : ngpus, type);
    state->phase = JobPhase::kRunning;
    state->gpu_type = type;
    state->ngpus = ngpus;
    state->nstages = nstages;
    state->iter_time = 1.0;
    return state;
  }

  std::vector<const JobState*> Views() const {
    std::vector<const JobState*> out;
    for (const auto& s : states_) {
      out.push_back(s.get());
    }
    return out;
  }

  // One scheduling round over the fixture's jobs and cluster. Tests pass no
  // events; per the RoundContext contract an incremental scheduler then falls
  // back to a full recompute whenever the cluster's health epoch moved.
  RoundContext Round(double now = 0.0) const { return RoundContext(now, Views(), cluster_); }

  // Same, against an explicit job set and cluster (standalone scenarios).
  static RoundContext RoundFor(double now, std::vector<const JobState*> jobs,
                               const Cluster& cluster) {
    return RoundContext(now, std::move(jobs), cluster);
  }

  // Asserts the resolved target never oversubscribes any GPU type of
  // `cluster`.
  static void CheckCapacityFor(const Cluster& cluster, const Resolved& resolved) {
    std::array<int, kNumGpuTypes> used{};
    for (const auto& [id, a] : resolved.target) {
      ASSERT_GT(a.ngpus, 0) << "job " << id;
      used[static_cast<int>(a.type)] += a.ngpus;
    }
    for (GpuType type : AllGpuTypes()) {
      EXPECT_LE(used[static_cast<int>(type)], cluster.TotalGpus(type))
          << GpuName(type) << " oversubscribed";
    }
  }

  void CheckCapacity(const Resolved& resolved) { CheckCapacityFor(cluster_, resolved); }

  Cluster cluster_;
  PerformanceOracle oracle_;
  std::vector<std::unique_ptr<JobState>> states_;
};

}  // namespace crius

#endif  // TESTS_SCHED_TEST_UTIL_H_
