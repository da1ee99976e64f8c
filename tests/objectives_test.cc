// Tests for Crius's ranking objective (the weight vector, its parser, and
// the fairness preset's max-min water-filling), the size-dependent
// checkpoint cost model, and the slowdown/fairness metrics.

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sched/factory.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

TEST(CriusObjectiveTest, DefaultAndToString) {
  CriusObjective objective;
  EXPECT_EQ(objective.ToString(), "1,0,0,0");
  objective.energy = 0.5;
  EXPECT_EQ(objective.ToString(), "1,0.5,0,0");
}

TEST(CriusObjectiveTest, ParseAcceptsWellFormedVectors) {
  const auto parsed = CriusObjective::Parse("1,0.5,0.2,0");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->throughput, 1.0);
  EXPECT_DOUBLE_EQ(parsed->energy, 0.5);
  EXPECT_DOUBLE_EQ(parsed->fragmentation, 0.2);
  EXPECT_DOUBLE_EQ(parsed->fairness, 0.0);
  // The default vector round-trips through ToString/Parse.
  const auto identity = CriusObjective::Parse(CriusObjective{}.ToString());
  ASSERT_TRUE(identity.has_value());
  EXPECT_EQ(identity->ToString(), "1,0,0,0");
}

TEST(CriusObjectiveTest, ParseRejectsMalformedVectors) {
  EXPECT_FALSE(CriusObjective::Parse("").has_value());
  EXPECT_FALSE(CriusObjective::Parse("1,2,3").has_value());        // too few
  EXPECT_FALSE(CriusObjective::Parse("1,2,3,4,5").has_value());    // trailing garbage
  EXPECT_FALSE(CriusObjective::Parse("1,,3,4").has_value());       // empty field
  EXPECT_FALSE(CriusObjective::Parse("1,x,3,4").has_value());      // non-numeric
  EXPECT_FALSE(CriusObjective::Parse("1,-0.5,0,0").has_value());   // negative
  EXPECT_FALSE(CriusObjective::Parse("nan,0,0,0").has_value());    // not a number
  EXPECT_FALSE(CriusObjective::Parse("1,inf,0,0").has_value());    // infinite
  EXPECT_FALSE(CriusObjective::Parse("1,1e400,0,0").has_value());  // overflows to inf
}

TEST(CriusObjectiveTest, FairVariantName) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  EXPECT_EQ(CriusScheduler(&oracle, CriusConfig{}).name(), "Crius");
  EXPECT_EQ(CriusScheduler(&oracle, CriusConfig{.objective = {.fairness = 1.0}}).name(),
            "Crius-Fair");
  // Any non-zero fairness weight water-fills, so it names the variant.
  EXPECT_EQ(CriusScheduler(&oracle, CriusConfig{.objective = {.fairness = 0.25}}).name(),
            "Crius-Fair");
  EXPECT_EQ(MakeNamedScheduler("crius-fair", &oracle)->name(), "Crius-Fair");
}

// crius-fair is nothing but crius under the fairness preset (1,0,0,1): both
// write the same jobs, events and timeline CSVs byte for byte.
TEST(CriusObjectiveTest, CriusFairIsTheFairnessPreset) {
  Cluster cluster = MakeNamedCluster("testbed");
  PerformanceOracle trace_oracle(cluster, 42);
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = 60;
  const std::vector<TrainingJob> trace = GenerateTrace(cluster, trace_oracle, trace_config);
  auto run = [&](const std::string& name, const SchedulerOptions& options) {
    PerformanceOracle oracle(cluster, 42);
    auto scheduler = MakeNamedScheduler(name, &oracle, options);
    SimConfig config;
    config.record_events = true;
    Simulator sim(cluster, config);
    const SimResult result = sim.Run(*scheduler, oracle, trace);
    std::ostringstream jobs, events, timeline;
    WriteJobRecordsCsv(result, jobs);
    WriteEventsCsv(result, events);
    WriteTimelineCsv(result, timeline);
    return std::array<std::string, 3>{jobs.str(), events.str(), timeline.str()};
  };
  const auto fair = run("crius-fair", {});
  const auto weighted = run("crius", {.objective = *CriusObjective::Parse("1,0,0,1")});
  const auto plain = run("crius", {});
  EXPECT_EQ(fair[0], weighted[0]) << "jobs CSV";
  EXPECT_EQ(fair[1], weighted[1]) << "events CSV";
  EXPECT_EQ(fair[2], weighted[2]) << "timeline CSV";
  // The scenario is one where the fairness weight changes decisions.
  EXPECT_NE(fair[1], plain[1]);
}

// crius-solver keeps the ordering with the highest objective total, and an
// energy-weighted total is negative whenever the placed Cells draw more kW
// than their scores are worth: the best pass must still win over placing
// nothing.
TEST(CriusObjectiveTest, SolverKeepsTheBestPassWhenEveryTotalIsNegative) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = 20;
  const std::vector<TrainingJob> trace = GenerateTrace(cluster, oracle, trace_config);
  auto scheduler = MakeNamedScheduler("crius-solver", &oracle,
                                      {.objective = {.throughput = 1.0, .energy = 5.0}});
  Simulator sim(cluster, SimConfig{});
  const SimResult result = sim.Run(*scheduler, oracle, trace);
  EXPECT_EQ(result.finished_jobs, 20);
}

class FairnessSchedTest : public SchedTestBase {
 protected:
  FairnessSchedTest() : SchedTestBase(MakeSimulatedCluster()) {}

  // Ids of the running jobs whose Cell the round changed.
  std::vector<int64_t> MovedJobs(const CriusConfig& config) {
    CriusScheduler sched(&oracle_, config);
    const ScheduleDecision d = sched.Schedule(Round(0.0));
    CheckCapacity(d);
    std::vector<int64_t> moved;
    for (const auto& state : states_) {
      const auto it = d.assignments.find(state->job.id);
      EXPECT_NE(it, d.assignments.end()) << "job " << state->job.id << " lost its Cell";
      if (it != d.assignments.end() &&
          (it->second.ngpus != state->ngpus || it->second.type != state->gpu_type)) {
        moved.push_back(state->job.id);
      }
    }
    return moved;
  }
};

TEST_F(FairnessSchedTest, WaterFillingUpgradesWorstOffJob) {
  // Two running BERT jobs and a budget of one upscale move:
  //   * job 0 requested 256 GPUs but holds 128 A100s (score 0.67); its best
  //     Cell, 256 V100s (score 1.0), is a 48% relative gain;
  //   * job 1 holds its requested 16 A100s (score 1.0); 32 A100s (score 1.51)
  //     is a 51% relative gain.
  // The throughput objective takes the larger relative gain, job 1's; the
  // fairness weight water-fills, upgrading the worst-off job 0 instead.
  AddRunning(0, kSmall, 128, GpuType::kA100, /*nstages=*/1, /*requested_gpus=*/256);
  AddRunning(1, kSmall, 16, GpuType::kA100, /*nstages=*/1, /*requested_gpus=*/16);
  CriusConfig config;
  config.max_upscale_moves = 1;
  EXPECT_EQ(MovedJobs(config), std::vector<int64_t>{1});
  config.objective.fairness = 1.0;
  EXPECT_EQ(MovedJobs(config), std::vector<int64_t>{0});
}

TEST_F(FairnessSchedTest, BothObjectivesRespectCapacity) {
  for (const char* weights : {"1,0,0,0", "1,0,0,1", "1,0.5,0,0", "1,0,0.5,0", "1,0.3,0.2,0.3"}) {
    SCOPED_TRACE(weights);
    CriusScheduler sched(&oracle_, CriusConfig{.objective = *CriusObjective::Parse(weights)});
    states_.clear();
    for (int i = 0; i < 50; ++i) {
      AddQueued(i, kSmall, 16, GpuType::kA100, static_cast<double>(i));
    }
    const ScheduleDecision d = sched.Schedule(Round(0.0));
    CheckCapacity(d);
    EXPECT_GT(d.assignments.size(), 5u);
  }
}

// ---------- checkpoint-bandwidth restart model --------------------------------

TEST(CheckpointCostTest, LargerModelsPayMoreOnRestart) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  SimConfig config;
  config.checkpoint_bandwidth = 2e9;  // 2 GB/s

  auto run_one = [&](const ModelSpec& spec) {
    TrainingJob job;
    job.id = 0;
    job.spec = spec;
    job.iterations = 10;
    job.requested_gpus = 4;
    job.requested_type = GpuType::kA100;
    FcfsScheduler sched(&oracle);
    Simulator sim(cluster, config);
    return sim.Run(sched, oracle, {job});
  };

  const SimResult small = run_one(ModelSpec{ModelFamily::kBert, 0.76, 128});
  const SimResult large = run_one(ModelSpec{ModelFamily::kBert, 1.3, 128});
  ASSERT_TRUE(small.jobs[0].finished && large.jobs[0].finished);
  // Start-up checkpoint-read gap must reflect the parameter-size difference.
  const double small_params = GetOpGraph(ModelSpec{ModelFamily::kBert, 0.76, 128}).TotalParamBytes();
  const double large_params = GetOpGraph(ModelSpec{ModelFamily::kBert, 1.3, 128}).TotalParamBytes();
  const double expected_gap = 2.0 * (large_params - small_params) / config.checkpoint_bandwidth;
  const double iter_gap = 10.0 * (oracle.BestAdaptive(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                                      GpuType::kA100, 4)
                                      ->iter_time -
                                  oracle.BestAdaptive(ModelSpec{ModelFamily::kBert, 0.76, 128},
                                                      GpuType::kA100, 4)
                                      ->iter_time);
  EXPECT_NEAR(large.jobs[0].finish - small.jobs[0].finish, expected_gap + iter_gap, 1e-6);
}

TEST(CheckpointCostTest, ZeroBandwidthKeepsFixedModel) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  TrainingJob job;
  job.id = 0;
  job.spec = kSmall;
  job.iterations = 10;
  job.requested_gpus = 4;
  job.requested_type = GpuType::kA100;
  FcfsScheduler sched(&oracle);
  Simulator sim(cluster, SimConfig{});
  const SimResult r = sim.Run(sched, oracle, {job});
  const double iter = oracle.BestAdaptive(kSmall, GpuType::kA100, 4)->iter_time;
  EXPECT_NEAR(r.jobs[0].finish, SimConfig{}.restart_overhead + 10.0 * iter, 1e-6);
}

// ---------- slowdown / fairness metrics ---------------------------------------

TEST(SlowdownMetricsTest, ComputedFromIdealDuration) {
  SimResult result;
  JobRecord a;
  a.id = 0;
  a.finished = true;
  a.submit = 0.0;
  a.first_start = 0.0;
  a.finish = 200.0;
  a.ideal_duration = 100.0;  // slowdown 2
  result.jobs.push_back(a);
  JobRecord b = a;
  b.id = 1;
  b.finish = 100.0;  // slowdown 1
  result.jobs.push_back(b);
  result.Finalize();
  EXPECT_DOUBLE_EQ(result.avg_slowdown, 1.5);
  EXPECT_GT(result.p99_slowdown, 1.9);
  // Jain over rates {0.5, 1.0}: (1.5)^2 / (2 * 1.25) = 0.9.
  EXPECT_NEAR(result.fairness_index, 0.9, 1e-12);
}

TEST(SlowdownMetricsTest, PerfectServiceIsFair) {
  SimResult result;
  for (int i = 0; i < 4; ++i) {
    JobRecord r;
    r.id = i;
    r.finished = true;
    r.first_start = 0.0;
    r.finish = 50.0;
    r.ideal_duration = 50.0;
    result.jobs.push_back(r);
  }
  result.Finalize();
  EXPECT_DOUBLE_EQ(result.avg_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(result.fairness_index, 1.0);
}

TEST(SlowdownMetricsTest, SimulatorFillsIdealDuration) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  TrainingJob job;
  job.id = 0;
  job.spec = kSmall;
  job.iterations = 100;
  job.requested_gpus = 4;
  job.requested_type = GpuType::kA100;
  FcfsScheduler sched(&oracle);
  Simulator sim(cluster, SimConfig{});
  const SimResult r = sim.Run(sched, oracle, {job});
  const double iter = oracle.BestAdaptive(kSmall, GpuType::kA100, 4)->iter_time;
  EXPECT_NEAR(r.jobs[0].ideal_duration, 100.0 * iter, 1e-9);
  EXPECT_GE(r.avg_slowdown, 1.0);
}

}  // namespace
}  // namespace crius
