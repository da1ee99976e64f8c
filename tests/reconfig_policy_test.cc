// Tests for ReconfigPolicy (src/reconfig/policy.h): trigger gating, the
// gain-vs-cost accept rule, churn dampers (hysteresis, cooldown, per-round
// cap), and capacity accounting against the round's decision.

#include "src/reconfig/policy.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace crius {
namespace {

class ReconfigPolicyTest : public ::testing::Test {
 protected:
  ReconfigPolicyTest() : cluster_(MakePhysicalTestbed()), oracle_(cluster_, 42) {}

  // A running job granted `ngpus` A40s (nstages 0 = full adaptive plan), with
  // a long remaining runtime so modeled gains dwarf migration costs.
  JobState MakeRunning(int64_t id, int requested, int granted) {
    JobState js;
    js.job.id = id;
    js.job.spec = ModelSpec{ModelFamily::kBert, 1.3, 128};
    js.job.requested_gpus = requested;
    js.job.requested_type = GpuType::kA40;
    js.job.iterations = 200000;
    js.phase = JobPhase::kRunning;
    js.gpu_type = GpuType::kA40;
    js.ngpus = granted;
    js.nstages = 0;
    js.iter_time = BestEstimatedIter(js.job.spec, GpuType::kA40, granted);
    return js;
  }

  // The estimator's best iteration time at (type, ngpus) — what the policy
  // computes as est_cur with the default (disabled) checkpoint model.
  double BestEstimatedIter(const ModelSpec& spec, GpuType type, int ngpus) {
    TrainingJob job;
    job.spec = spec;
    job.requested_gpus = ngpus;
    double best = 0.0;
    for (const Cell& cell : GenerateCells(job, cluster_)) {
      if (cell.gpu_type != type || cell.ngpus != ngpus) {
        continue;
      }
      best = std::max(best, oracle_.EstimatedThroughput(spec, cell));
    }
    EXPECT_GT(best, 0.0);
    return static_cast<double>(spec.global_batch) / best;
  }

  ReconfigConfig EnabledConfig() {
    ReconfigConfig config;
    config.enabled = true;
    return config;
  }

  Cluster cluster_;
  PerformanceOracle oracle_;
};

TEST_F(ReconfigPolicyTest, DisabledPolicyProposesNothing) {
  ReconfigConfig config;  // enabled = false
  ReconfigPolicy policy(&oracle_, config);
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const RoundContext round(0.0, {&jobs[0]}, cluster_,
                           {RoundEvent::NodeRecover(0, GpuType::kA40)});
  EXPECT_TRUE(policy.Propose(round, ScheduleDecision{}).empty());
}

TEST_F(ReconfigPolicyTest, QuietRoundsDoNotTrigger) {
  ReconfigPolicy policy(&oracle_, EnabledConfig());
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const ScheduleDecision decision{};  // every job keeps its grant
  // No events at all, and a single arrival below the burst threshold: the
  // shrunken job stays put even though growing it would clearly pay.
  EXPECT_TRUE(policy.Propose(RoundContext(0.0, {&jobs[0]}, cluster_), decision).empty());
  EXPECT_TRUE(policy
                  .Propose(RoundContext(0.0, {&jobs[0]}, cluster_,
                                        {RoundEvent::JobArrival(7)}),
                           decision)
                  .empty());
}

TEST_F(ReconfigPolicyTest, GrowsAShrunkenJobWhenTheGainBeatsTheCost) {
  ReconfigPolicy policy(&oracle_, EnabledConfig());
  // Requested 8, running on 4: the 8- and 16-GPU candidates are strictly
  // faster per iteration and the testbed has plenty of free A40s.
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const RoundContext round(0.0, {&jobs[0]}, cluster_,
                           {RoundEvent::JobDeparture(99)});
  const auto actions = policy.Propose(round, ScheduleDecision{});
  ASSERT_EQ(actions.size(), 1u);
  const MigrationAction& action = actions[0];
  EXPECT_EQ(action.job_id, 1);
  EXPECT_GT(action.target.ngpus, 4);
  EXPECT_GT(action.target.nstages, 0);  // migration targets are concrete Cells
  EXPECT_GT(action.gain_seconds, action.cost_seconds);
  if (action.target.type == GpuType::kA40) {
    EXPECT_EQ(action.kind, MigrationKind::kGrow);
  } else {
    EXPECT_EQ(action.kind, MigrationKind::kTypeSwap);
  }
}

TEST_F(ReconfigPolicyTest, HealthEventsAndArrivalBurstsTrigger) {
  ReconfigPolicy policy(&oracle_, EnabledConfig());
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const ScheduleDecision decision{};  // every job keeps its grant
  EXPECT_FALSE(policy
                   .Propose(RoundContext(0.0, {&jobs[0]}, cluster_,
                                         {RoundEvent::NodeRecover(3, GpuType::kA40)}),
                            decision)
                   .empty());
  // Fresh policy (no cooldown state): a two-arrival burst triggers too.
  ReconfigPolicy burst_policy(&oracle_, EnabledConfig());
  EXPECT_FALSE(burst_policy
                   .Propose(RoundContext(0.0, {&jobs[0]}, cluster_,
                                         {RoundEvent::JobArrival(7),
                                          RoundEvent::JobArrival(8)}),
                            decision)
                   .empty());
}

TEST_F(ReconfigPolicyTest, CooldownBlocksBackToBackMigrationsOfOneJob) {
  ReconfigConfig config = EnabledConfig();
  config.cooldown = 900.0;
  ReconfigPolicy policy(&oracle_, config);
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const ScheduleDecision decision{};  // every job keeps its grant
  const std::vector<RoundEvent> trigger = {RoundEvent::JobDeparture(99)};
  EXPECT_EQ(policy.Propose(RoundContext(0.0, {&jobs[0]}, cluster_, trigger), decision).size(),
            1u);
  // Same (unapplied) state inside the cooldown window: damped.
  EXPECT_TRUE(
      policy.Propose(RoundContext(450.0, {&jobs[0]}, cluster_, trigger), decision).empty());
  // Past the window the proposal returns.
  EXPECT_EQ(
      policy.Propose(RoundContext(901.0, {&jobs[0]}, cluster_, trigger), decision).size(), 1u);
}

TEST_F(ReconfigPolicyTest, HysteresisAndRelativeGainDampMarginalMoves) {
  // min_relative_gain = 1.0 makes the accept rule unsatisfiable: the
  // performance motive's gain is strictly less than the remaining time.
  ReconfigConfig config = EnabledConfig();
  config.min_relative_gain = 1.0;
  ReconfigPolicy policy(&oracle_, config);
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  const RoundContext round(0.0, {&jobs[0]}, cluster_, {RoundEvent::JobDeparture(99)});
  EXPECT_TRUE(policy.Propose(round, ScheduleDecision{}).empty());

  // A nearly-done job: the absolute gain cannot clear cost + margin.
  ReconfigPolicy fresh_policy(&oracle_, EnabledConfig());
  jobs[0].iters_done = static_cast<double>(jobs[0].job.iterations) - 1.0;
  EXPECT_TRUE(fresh_policy.Propose(round, ScheduleDecision{}).empty());
}

TEST_F(ReconfigPolicyTest, RespectsCapacityLeftByTheDecision) {
  ReconfigPolicy policy(&oracle_, EnabledConfig());
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  ScheduleDecision decision{};  // every job keeps its grant
  // A phantom assignment soaks up every other GPU of both types: no candidate
  // larger than the job's own grant is reachable, and the same-size type swap
  // has no capacity either.
  decision.assignments[99] =
      Assignment{GpuType::kA40, cluster_.UsableGpus(GpuType::kA40) - 4, 0, false};
  decision.assignments[98] =
      Assignment{GpuType::kA10, cluster_.UsableGpus(GpuType::kA10), 0, false};
  const RoundContext round(0.0, {&jobs[0]}, cluster_, {RoundEvent::JobDeparture(97)});
  // Sanity: without the phantom grants the same round does migrate the job.
  ReconfigPolicy unconstrained(&oracle_, EnabledConfig());
  ASSERT_FALSE(unconstrained.Propose(round, ScheduleDecision{}).empty());
  EXPECT_TRUE(policy.Propose(round, decision).empty());
}

TEST_F(ReconfigPolicyTest, PerRoundCapKeepsLowestJobIdsFirst) {
  ReconfigConfig config = EnabledConfig();
  config.max_migrations_per_round = 1;
  ReconfigPolicy policy(&oracle_, config);
  std::vector<JobState> jobs = {MakeRunning(5, 8, 4), MakeRunning(2, 8, 4)};
  const RoundContext round(0.0, {&jobs[0], &jobs[1]}, cluster_,
                           {RoundEvent::JobDeparture(99)});
  const auto actions = policy.Propose(round, ScheduleDecision{});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].job_id, 2);  // ascending-id scan: job 2 wins the slot
}

TEST_F(ReconfigPolicyTest, SkipsJobsStillInsideARestartWindow) {
  ReconfigPolicy policy(&oracle_, EnabledConfig());
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4)};
  jobs[0].blocked_until = 100.0;  // mid-restore at now == 0
  const RoundContext round(0.0, {&jobs[0]}, cluster_, {RoundEvent::JobDeparture(99)});
  EXPECT_TRUE(policy.Propose(round, ScheduleDecision{}).empty());
}

TEST_F(ReconfigPolicyTest, ProposalsAreDeterministic) {
  std::vector<JobState> jobs = {MakeRunning(1, 8, 4), MakeRunning(3, 4, 2)};
  const RoundContext round(0.0, {&jobs[0], &jobs[1]}, cluster_,
                           {RoundEvent::JobDeparture(99)});
  ReconfigPolicy a(&oracle_, EnabledConfig());
  ReconfigPolicy b(&oracle_, EnabledConfig());
  const auto actions_a = a.Propose(round, ScheduleDecision{});
  const auto actions_b = b.Propose(round, ScheduleDecision{});
  ASSERT_EQ(actions_a.size(), actions_b.size());
  for (size_t i = 0; i < actions_a.size(); ++i) {
    EXPECT_EQ(actions_a[i].job_id, actions_b[i].job_id);
    EXPECT_EQ(actions_a[i].kind, actions_b[i].kind);
    EXPECT_EQ(actions_a[i].target.ngpus, actions_b[i].target.ngpus);
    EXPECT_EQ(actions_a[i].target.nstages, actions_b[i].target.nstages);
    EXPECT_DOUBLE_EQ(actions_a[i].cost_seconds, actions_b[i].cost_seconds);
    EXPECT_DOUBLE_EQ(actions_a[i].gain_seconds, actions_b[i].gain_seconds);
  }
}

}  // namespace
}  // namespace crius
