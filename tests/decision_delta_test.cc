// The decision-delta contract (DESIGN.md §7b "Decision deltas").
//
// A ScheduleDecision lists only the jobs whose grant changes: `assignments`
// holds starts and changed grants, `preempted` the running jobs to stop, and
// a running job in neither list keeps its grant. The tests here:
//
//   * DeltaRoundTripTest runs every scheduler on seeded random rounds of
//     queued and running jobs (xoshiro256** Rng). Each decision must be
//     canonical -- DiffAgainstRound of its resolved target gives it back, so
//     it carries no no-op entry -- and the resolved targets must hash to the
//     goldens recorded from the schedulers that returned the full target of
//     every placed job.
//   * DiffAgainstRoundTest round-trips random full targets through
//     DiffAgainstRound and ResolvedTarget.
//   * DeltaDeathTest checks that the engine rejects the three malformed
//     deltas: an entry for a job it did not show the scheduler, a preemption
//     of a job that is not running, and one id in two lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace crius {
namespace {

// 64 GPUs over three types, so random rounds contend for capacity.
Cluster SmallCluster() {
  Cluster c;
  c.AddNodes(GpuType::kA100, 4, 4);
  c.AddNodes(GpuType::kA40, 8, 2);
  c.AddNodes(GpuType::kV100, 2, 16);
  return c;
}

const ModelSpec kSpecs[] = {
    {ModelFamily::kBert, 0.76, 128},
    {ModelFamily::kBert, 1.3, 256},
    {ModelFamily::kWideResNet, 0.5, 256},
    {ModelFamily::kMoe, 0.69, 256},
};

constexpr double kNow = 2.0 * kHour;

// One seeded round: 4-20 jobs with sparse ids; about half run on a grant that
// fits the cluster (some with an unpinned stage count, some opportunistic),
// and about a third carry a deadline.
struct RandomRound {
  std::vector<std::unique_ptr<JobState>> states;

  RandomRound(uint64_t seed, const Cluster& cluster) {
    Rng rng(seed, "test.decision_delta");
    std::vector<GpuType> types;
    std::array<int, kNumGpuTypes> free{};
    for (GpuType type : AllGpuTypes()) {
      if (cluster.HasType(type)) {
        types.push_back(type);
        free[static_cast<int>(type)] = cluster.UsableGpus(type);
      }
    }
    auto pick_type = [&] {
      return types[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(types.size()) - 1))];
    };
    const int64_t n = rng.UniformInt(4, 20);
    for (int64_t i = 0; i < n; ++i) {
      auto js = std::make_unique<JobState>();
      js->job.id = 3 * i + 1;
      js->job.spec = kSpecs[rng.UniformInt(0, std::size(kSpecs) - 1)];
      js->job.requested_type = pick_type();
      js->job.requested_gpus = 1 << rng.UniformInt(0, 4);
      js->job.submit_time = rng.Uniform(0.0, kNow);
      js->job.iterations = rng.UniformInt(1000, 20000);
      js->iters_done = rng.Uniform(0.0, 0.5) * static_cast<double>(js->job.iterations);
      if (rng.Uniform() < 0.3) {
        js->job.deadline = kNow + rng.Uniform(0.5, 48.0) * kHour;
      }
      const GpuType type = pick_type();
      const int ngpus = 1 << rng.UniformInt(0, 4);
      if (rng.Uniform() < 0.5 && free[static_cast<int>(type)] >= ngpus) {
        free[static_cast<int>(type)] -= ngpus;
        js->phase = JobPhase::kRunning;
        js->gpu_type = type;
        js->ngpus = ngpus;
        js->nstages = rng.Uniform() < 0.5 ? 0 : std::min(ngpus, 1 << rng.UniformInt(0, 2));
        js->opportunistic = rng.Uniform() < 0.2;
        js->iter_time = 1.0;
        js->first_start = js->job.submit_time;
      }
      states.push_back(std::move(js));
    }
  }

  std::vector<const JobState*> Views() const {
    std::vector<const JobState*> out;
    for (const auto& s : states) {
      out.push_back(s.get());
    }
    return out;
  }
};

// Hashes a full target and the queued jobs a decision drops (the engine never
// dropped a running job; one left out of the target is preempted).
uint64_t HashTarget(uint64_t h, const std::map<int64_t, Assignment>& target,
                    const RoundContext& round, const std::vector<int64_t>& dropped) {
  for (const auto& [id, a] : target) {
    h = HashCombine(h, static_cast<uint64_t>(id));
    h = HashCombine(h, static_cast<uint64_t>(a.type));
    h = HashCombine(h, static_cast<uint64_t>(a.ngpus));
    h = HashCombine(h, static_cast<uint64_t>(a.nstages));
    h = HashCombine(h, a.opportunistic ? 1u : 0u);
  }
  h = HashCombine(h, target.size());
  size_t queued_drops = 0;
  for (int64_t id : dropped) {
    for (const JobState* js : round.jobs()) {
      if (js->job.id == id && js->phase == JobPhase::kQueued) {
        h = HashCombine(h, static_cast<uint64_t>(id));
        ++queued_drops;
      }
    }
  }
  return HashCombine(h, queued_drops);
}

std::vector<int64_t> Sorted(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct SchedulerCase {
  const char* label;
  const char* scheduler;
  bool deadline_aware;
  uint64_t target_hash;  // golden hash of the full targets over every seed
};

void PrintTo(const SchedulerCase& c, std::ostream* os) { *os << c.label; }

constexpr int kSeeds = 40;

// Recorded from the schedulers that returned the full target of every placed
// job in `assignments`.
constexpr SchedulerCase kCases[] = {
    {"crius", "crius", false, 0x0ae01e83d1b74e15ull},
    {"crius_na", "crius-na", false, 0x1e89be4a7330b667ull},
    {"crius_nh", "crius-nh", false, 0x2612e5d20756e3bcull},
    {"crius_fair", "crius-fair", false, 0xa4d2d77f08e3bb5dull},
    {"crius_solver", "crius-solver", false, 0x476ecc2d7e4cbabeull},
    {"crius_ddl", "crius", true, 0x4a3a8b4d03f6baaeull},
    {"fcfs", "fcfs", false, 0x86db1b159cde26a2ull},
    {"gandiva", "gandiva", false, 0xcacc4d535623b42cull},
    {"gavel", "gavel", false, 0xeb5a9778d041037full},
    {"tiresias", "tiresias", false, 0xe10b6383fbb71c22ull},
    {"elasticflow", "elasticflow", false, 0x8b9be7714cfece1dull},
    {"elasticflow_strict", "elasticflow-strict", false, 0xd115bc651f7fb6f1ull},
};

class DeltaRoundTripTest : public ::testing::TestWithParam<SchedulerCase> {};

TEST_P(DeltaRoundTripTest, DeltaIsCanonicalAndResolvesToGoldenTargets) {
  const SchedulerCase& c = GetParam();
  const Cluster cluster = SmallCluster();
  PerformanceOracle oracle(cluster, 42);
  uint64_t hash = 0;
  int64_t preemptions = 0;
  int64_t kept = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const RandomRound random(static_cast<uint64_t>(seed), cluster);
    const RoundContext round(kNow, random.Views(), cluster);
    SchedulerOptions options;
    options.deadline_aware = c.deadline_aware;
    const ScheduleDecision decision =
        MakeNamedScheduler(c.scheduler, &oracle, options)->Schedule(round);
    const std::map<int64_t, Assignment> target = ResolvedTarget(round, decision);
    hash = HashTarget(hash, target, round, decision.dropped);

    for (int64_t id : decision.dropped) {
      EXPECT_TRUE(decision.assignments.count(id) == 0 && target.count(id) == 0) << id;
    }
    const ScheduleDecision canonical = DiffAgainstRound(round, target);
    EXPECT_EQ(canonical.assignments, decision.assignments) << "seed " << seed;
    EXPECT_EQ(Sorted(canonical.preempted), Sorted(decision.preempted)) << "seed " << seed;
    preemptions += static_cast<int64_t>(decision.preempted.size());
    kept += static_cast<int64_t>(target.size() - decision.assignments.size());
  }
  std::printf("actual: {\"%s\", 0x%016" PRIx64 "ull}  // %" PRId64 " preempted, %" PRId64
              " kept\n",
              c.label, hash, preemptions, kept);
  EXPECT_EQ(hash, c.target_hash);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, DeltaRoundTripTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<SchedulerCase>& info) {
                           return std::string(info.param.label);
                         });

// Random full targets over random rounds: a running job keeps, changes or
// loses its grant, a queued job is placed or not.
TEST(DiffAgainstRoundTest, ResolvedTargetInvertsDiff) {
  const Cluster cluster = SmallCluster();
  for (int seed = 0; seed < 200; ++seed) {
    const RandomRound random(static_cast<uint64_t>(seed), cluster);
    const RoundContext round(kNow, random.Views(), cluster);
    Rng rng(static_cast<uint64_t>(seed), "test.decision_delta.target");
    std::map<int64_t, Assignment> target;
    for (const JobState* js : round.jobs()) {
      const double u = rng.Uniform();
      if (js->phase == JobPhase::kRunning && u < 0.4) {
        target[js->job.id] = HeldGrant(*js);
      } else if (u < 0.8) {
        target[js->job.id] = Assignment{js->job.requested_type, 1 << rng.UniformInt(0, 4),
                                        static_cast<int>(rng.UniformInt(0, 2)),
                                        rng.Uniform() < 0.5};
      }
    }
    const ScheduleDecision delta = DiffAgainstRound(round, target);
    EXPECT_EQ(ResolvedTarget(round, delta), target) << "seed " << seed;
    for (const JobState* js : round.jobs()) {
      const auto it = delta.assignments.find(js->job.id);
      if (js->phase == JobPhase::kRunning && it != delta.assignments.end()) {
        EXPECT_NE(it->second, HeldGrant(*js)) << "no-op entry for job " << js->job.id;
      }
      if (js->phase == JobPhase::kQueued) {
        EXPECT_EQ(std::count(delta.preempted.begin(), delta.preempted.end(), js->job.id), 0);
      }
    }
  }
}

// A scheduler that returns whatever `decide` builds from the round.
class DeltaScheduler final : public Scheduler {
 public:
  explicit DeltaScheduler(std::function<ScheduleDecision(const RoundContext&)> decide)
      : Scheduler(nullptr), decide_(std::move(decide)) {}
  std::string name() const override { return "Delta"; }
  ScheduleDecision Schedule(const RoundContext& round) override { return decide_(round); }

 private:
  std::function<ScheduleDecision(const RoundContext&)> decide_;
};

TrainingJob SmallJob(int64_t id, double submit) {
  TrainingJob job;
  job.id = id;
  job.spec = kSpecs[0];
  job.submit_time = submit;
  job.iterations = 1000000;
  job.requested_gpus = 4;
  job.requested_type = GpuType::kA100;
  return job;
}

// Runs job 0 from t = 0 and job 1 from t = 1 day under `decide`.
void RunDelta(std::function<ScheduleDecision(const RoundContext&)> decide) {
  const Cluster cluster = SmallCluster();
  PerformanceOracle oracle(cluster, 42);
  DeltaScheduler scheduler(std::move(decide));
  Simulator sim(cluster, SimConfig{});
  sim.Run(scheduler, oracle, {SmallJob(0, 0.0), SmallJob(1, kDay)});
}

const Assignment kGrant{GpuType::kA100, 4, 0, false};

TEST(DeltaDeathTest, RejectsEntryForJobNotShown) {
  // Job 1 is submitted a day later, so the first round does not show it.
  EXPECT_DEATH(RunDelta([](const RoundContext&) {
                 ScheduleDecision d;
                 d.assignments[1] = kGrant;
                 return d;
               }),
               "names job 1, which is not visible");
}

TEST(DeltaDeathTest, RejectsPreemptionOfQueuedJob) {
  EXPECT_DEATH(RunDelta([](const RoundContext&) {
                 ScheduleDecision d;
                 d.preempted.push_back(0);
                 return d;
               }),
               "preempts job 0, which is not running");
}

TEST(DeltaDeathTest, RejectsJobInTwoLists) {
  // Round 1 starts job 0; round 2 both re-assigns and preempts it.
  EXPECT_DEATH(RunDelta([](const RoundContext& round) {
                 ScheduleDecision d;
                 for (const JobState* js : round.jobs()) {
                   if (js->job.id != 0) {
                     continue;
                   }
                   if (js->phase == JobPhase::kQueued) {
                     d.assignments[0] = kGrant;
                   } else {
                     d.assignments[0] = Assignment{GpuType::kA100, 8, 0, false};
                     d.preempted.push_back(0);
                   }
                 }
                 return d;
               }),
               "lists job 0 twice");
}

}  // namespace
}  // namespace crius
