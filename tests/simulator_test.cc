#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

TrainingJob MakeJob(int64_t id, double submit, int64_t iterations, int gpus = 4,
                    GpuType type = GpuType::kA100) {
  TrainingJob job;
  job.id = id;
  job.spec = kSmall;
  job.submit_time = submit;
  job.iterations = iterations;
  job.requested_gpus = gpus;
  job.requested_type = type;
  return job;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : cluster_(MakeMotivationCluster()), oracle_(cluster_, 42) {}

  SimResult RunFcfs(const std::vector<TrainingJob>& trace, SimConfig config = SimConfig{}) {
    Simulator sim(cluster_, config);
    FcfsScheduler sched(&oracle_);
    return sim.Run(sched, oracle_, trace);
  }

  Cluster cluster_;
  PerformanceOracle oracle_;
};

TEST_F(SimulatorTest, SingleJobLifecycle) {
  const TrainingJob job = MakeJob(0, 0.0, 100);
  const SimResult r = RunFcfs({job});
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_TRUE(r.jobs[0].finished);
  EXPECT_EQ(r.finished_jobs, 1);

  // Finish time = first round (t=0) + restart overhead + 100 iterations.
  const auto& best = oracle_.BestAdaptive(kSmall, GpuType::kA100, 4);
  ASSERT_TRUE(best.has_value());
  const double expected = SimConfig{}.restart_overhead + 100.0 * best->iter_time;
  EXPECT_NEAR(r.jobs[0].finish, expected, 1e-6);
  EXPECT_DOUBLE_EQ(r.jobs[0].first_start, 0.0);
  EXPECT_EQ(r.jobs[0].restarts, 0);
}

TEST_F(SimulatorTest, ArrivalsWaitForNextRound) {
  // A job submitted mid-round starts at the next 5-minute boundary.
  const TrainingJob job = MakeJob(0, 100.0, 10);
  const SimResult r = RunFcfs({job});
  ASSERT_TRUE(r.jobs[0].finished);
  EXPECT_DOUBLE_EQ(r.jobs[0].first_start, 300.0);
}

TEST_F(SimulatorTest, QueuedJobStartsAfterFirstCompletes) {
  // Two jobs, each wanting the whole A100 node.
  std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 50), MakeJob(1, 0.0, 50)};
  const SimResult r = RunFcfs(trace);
  ASSERT_EQ(r.finished_jobs, 2);
  EXPECT_GE(r.jobs[1].first_start, r.jobs[0].finish - 1e-6);
  EXPECT_GT(r.jobs[1].queue_time(), 0.0);
}

TEST_F(SimulatorTest, DepartureTriggersImmediateScheduling) {
  // The second job starts exactly when the first finishes, not at the next
  // round boundary (SchedDeparture path).
  std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 40), MakeJob(1, 0.0, 40)};
  const SimResult r = RunFcfs(trace);
  const double finish0 = r.jobs[0].finish;
  EXPECT_NEAR(r.jobs[1].first_start, finish0, 1e-6);
  // And not a multiple of the round interval.
  EXPECT_GT(std::abs(std::fmod(finish0, 300.0)), 1e-3);
}

TEST_F(SimulatorTest, RestartOverheadDelaysProgress) {
  SimConfig slow;
  slow.restart_overhead = 500.0;
  const SimResult fast = RunFcfs({MakeJob(0, 0.0, 100)});
  const SimResult delayed = RunFcfs({MakeJob(0, 0.0, 100)}, slow);
  EXPECT_NEAR(delayed.jobs[0].finish - fast.jobs[0].finish, 440.0, 1e-6);
}

TEST_F(SimulatorTest, ThroughputTimelineSampled) {
  const SimResult r = RunFcfs({MakeJob(0, 0.0, 2000)});
  EXPECT_GT(r.timeline.size(), 2u);
  bool saw_running = false;
  for (const ThroughputSample& s : r.timeline) {
    EXPECT_GE(s.normalized_throughput, 0.0);
    if (s.running_jobs > 0 && s.normalized_throughput > 0.0) {
      saw_running = true;
      // Running at the requested shape: normalized throughput ~ 1 per job.
      EXPECT_NEAR(s.normalized_throughput, 1.0, 0.05);
    }
  }
  EXPECT_TRUE(saw_running);
}

TEST_F(SimulatorTest, UnfinishedJobsReportedAtTimeCap) {
  SimConfig config;
  config.max_time_factor = 0.0;  // cap almost immediately after the trace end
  const SimResult r = RunFcfs({MakeJob(0, 0.0, 100000000)}, config);
  EXPECT_EQ(r.finished_jobs, 0);
  EXPECT_EQ(r.unfinished_jobs, 1);
  EXPECT_FALSE(r.jobs[0].finished);
}

TEST_F(SimulatorTest, ProfilingDelayPostponesCriusStart) {
  SimConfig with;
  with.charge_profiling = true;
  SimConfig without;
  without.charge_profiling = false;

  CriusScheduler sched_a(&oracle_, CriusConfig{});
  CriusScheduler sched_b(&oracle_, CriusConfig{});
  Simulator sim_a(cluster_, with);
  Simulator sim_b(cluster_, without);
  const std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 50)};
  const SimResult a = sim_a.Run(sched_a, oracle_, trace);
  const SimResult b = sim_b.Run(sched_b, oracle_, trace);
  ASSERT_TRUE(a.jobs[0].finished && b.jobs[0].finished);
  EXPECT_GT(a.jobs[0].first_start, b.jobs[0].first_start);
}

// FCFS with a fixed profiling delay.
class DelayedFcfsScheduler : public FcfsScheduler {
 public:
  DelayedFcfsScheduler(PerformanceOracle* oracle, double delay)
      : FcfsScheduler(oracle), delay_(delay) {}
  double ProfilingDelay(const TrainingJob&, const Cluster&) override { return delay_; }

 private:
  double delay_;
};

TEST_F(SimulatorTest, JobVisibleWithinEpsilonOfItsProfilingWindowStartsThatRound) {
  // The engine makes a job visible once the round time is within 1e-6 of its
  // profiling window's end. A job the round's scheduler sees and assigns must
  // also start in that round, not wait for the next round boundary.
  SimConfig config;
  config.charge_profiling = true;
  Simulator sim(cluster_, config);
  DelayedFcfsScheduler sched(&oracle_, 0.5e-6);
  const SimResult r = sim.Run(sched, oracle_, {MakeJob(0, 0.0, 100)});
  ASSERT_TRUE(r.jobs[0].finished);
  EXPECT_DOUBLE_EQ(r.jobs[0].first_start, 0.0);
}

TEST_F(SimulatorTest, ExecutionJitterChangesTimesDeterministically) {
  SimConfig jitter;
  jitter.execution_jitter = 0.06;
  const SimResult plain = RunFcfs({MakeJob(0, 0.0, 100)});
  const SimResult a = RunFcfs({MakeJob(0, 0.0, 100)}, jitter);
  const SimResult b = RunFcfs({MakeJob(0, 0.0, 100)}, jitter);
  EXPECT_NE(a.jobs[0].finish, plain.jobs[0].finish);
  EXPECT_DOUBLE_EQ(a.jobs[0].finish, b.jobs[0].finish);
  EXPECT_NEAR(a.jobs[0].finish, plain.jobs[0].finish, plain.jobs[0].finish * 0.1);
}

TEST_F(SimulatorTest, RestartsCountedOnReschedule) {
  // Crius on a small cluster with two competing jobs reschedules at least one
  // of them when the second arrives / the first departs.
  CriusScheduler sched(&oracle_, CriusConfig{});
  Simulator sim(cluster_, SimConfig{});
  std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 800, 4),
                                    MakeJob(1, 0.0, 800, 4, GpuType::kV100)};
  const SimResult r = sim.Run(sched, oracle_, trace);
  EXPECT_EQ(r.finished_jobs, 2);
  // Restart counting never goes negative and JCTs are positive.
  for (const JobRecord& rec : r.jobs) {
    EXPECT_GE(rec.restarts, 0);
    EXPECT_GT(rec.jct(), 0.0);
  }
}

TEST_F(SimulatorTest, ValidateCollectsAllConfigErrors) {
  SimConfig config;
  config.schedule_interval = 0.0;
  config.restart_overhead = -1.0;
  config.execution_jitter = -0.5;
  config.failures.push_back(FailureEvent{-1.0, FailureKind::kNodeFail, 999, 0, 1.0});
  const std::vector<std::string> errors = config.Validate(cluster_);
  // Every problem is reported at once: interval, overhead, jitter, and both
  // failure-event defects (negative time + unknown node).
  EXPECT_EQ(errors.size(), 5u);
  EXPECT_TRUE(SimConfig{}.Validate(cluster_).empty());
}

// A scheduler whose decision both assigns and drops the same job: the
// simulator must reject the contradiction instead of starting then tearing
// down the job.
class ContradictoryScheduler : public Scheduler {
 public:
  explicit ContradictoryScheduler(PerformanceOracle* oracle) : Scheduler(oracle) {}
  std::string name() const override { return "Contradictory"; }
  ScheduleDecision Schedule(const RoundContext& round) override {
    ScheduleDecision d;
    for (const JobState* js : round.jobs()) {
      d.assignments[js->job.id] =
          Assignment{js->job.requested_type, js->job.requested_gpus, 0, false};
      d.dropped.push_back(js->job.id);
    }
    return d;
  }
};

TEST_F(SimulatorTest, RejectsDecisionThatAssignsAndDropsSameJob) {
  const TrainingJob job = MakeJob(0, 0.0, 100);
  ContradictoryScheduler sched(&oracle_);
  Simulator sim(cluster_, SimConfig{});
  EXPECT_DEATH(sim.Run(sched, oracle_, {job}), "both assigns and drops job");
}

TEST_F(SimulatorTest, AllSchedulersCompleteAMixedTrace) {
  std::vector<TrainingJob> trace;
  for (int i = 0; i < 6; ++i) {
    trace.push_back(MakeJob(i, i * 60.0, 100, i % 2 == 0 ? 2 : 4,
                            i % 3 == 0 ? GpuType::kV100 : GpuType::kA100));
  }
  std::vector<std::unique_ptr<Scheduler>> scheds;
  scheds.push_back(std::make_unique<FcfsScheduler>(&oracle_));
  scheds.push_back(std::make_unique<GandivaScheduler>(&oracle_));
  scheds.push_back(std::make_unique<GavelScheduler>(&oracle_));
  scheds.push_back(std::make_unique<ElasticFlowScheduler>(&oracle_, ElasticFlowConfig{}));
  scheds.push_back(std::make_unique<CriusScheduler>(&oracle_, CriusConfig{}));
  for (auto& sched : scheds) {
    Simulator sim(cluster_, SimConfig{});
    const SimResult r = sim.Run(*sched, oracle_, trace);
    EXPECT_EQ(r.finished_jobs, 6) << sched->name();
    EXPECT_EQ(r.dropped_jobs, 0) << sched->name();
  }
}

}  // namespace
}  // namespace crius
