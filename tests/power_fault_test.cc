// Tests for the energy ledger under failure injection: failed devices draw
// ZERO (they are powered off, not idling) and the joule partition stays exact
// through kill/restart churn.

#include <gtest/gtest.h>

#include "src/power/power.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

TrainingJob MakeJob(int64_t id, double submit, int64_t iterations) {
  TrainingJob job;
  job.id = id;
  job.spec = kSmall;
  job.submit_time = submit;
  job.iterations = iterations;
  job.requested_gpus = 4;
  job.requested_type = GpuType::kA100;
  return job;
}

std::vector<FailureEvent> FailAllNodes(const Cluster& cluster, double fail_at,
                                       double recover_at) {
  std::vector<FailureEvent> events;
  for (const NodeInfo& node : cluster.nodes()) {
    events.push_back(FailureEvent{fail_at, FailureKind::kNodeFail, node.id, 0, 1.0});
    events.push_back(FailureEvent{recover_at, FailureKind::kNodeRecover, node.id, 0, 1.0});
  }
  return events;
}

SimResult RunFcfs(const std::vector<TrainingJob>& trace, SimConfig config) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  FcfsScheduler sched(&oracle);
  Simulator sim(cluster, std::move(config));
  return sim.Run(sched, oracle, trace);
}

TEST(PowerFaultTest, FailedNodesDrawZeroNotIdle) {
  Cluster cluster = MakeMotivationCluster();
  SimConfig config;
  config.power.enabled = true;
  // Total outage from 10 to 50 minutes: every node failed, the lone job
  // killed. During that window the cluster must draw exactly nothing — if
  // failed devices were (incorrectly) billed at the idle floor, the samples
  // would sit at TotalGpus * idle watts instead.
  config.failures = FailAllNodes(cluster, 600.0, 3000.0);
  const SimResult r = RunFcfs({MakeJob(0, 0.0, 100000)}, config);
  ASSERT_EQ(r.failure_kills, 1);
  ASSERT_EQ(r.finished_jobs, 1);

  bool saw_outage_sample = false;
  bool saw_draw = false;
  for (const ThroughputSample& s : r.timeline) {
    if (s.usable_gpus == 0) {
      saw_outage_sample = true;
      EXPECT_EQ(s.power_watts, 0.0) << "failed devices billed at t=" << s.time;
    }
    saw_draw = saw_draw || s.power_watts > 0.0;
  }
  EXPECT_TRUE(saw_outage_sample);
  EXPECT_TRUE(saw_draw);
}

TEST(PowerFaultTest, OutageEnergyIsLowerThanHealthyIdle) {
  // Cross-check the zero-draw rule on the integrated totals: the same
  // workload with a one-hour total outage must consume strictly less energy
  // than the healthy run PLUS it pays lost joules for the rolled-back
  // segment, all while the exact partition keeps holding.
  SimConfig healthy;
  healthy.power.enabled = true;
  SimConfig outage = healthy;
  Cluster cluster = MakeMotivationCluster();
  outage.failures = FailAllNodes(cluster, 600.0, 4200.0);

  const std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 50000)};
  const SimResult a = RunFcfs(trace, healthy);
  const SimResult b = RunFcfs(trace, outage);
  ASSERT_EQ(a.finished_jobs, 1);
  ASSERT_EQ(b.finished_jobs, 1);

  EXPECT_DOUBLE_EQ(a.total_joules, a.useful_joules + a.idle_joules + a.lost_joules);
  EXPECT_DOUBLE_EQ(b.total_joules, b.useful_joules + b.idle_joules + b.lost_joules);
  // Healthy "lost" is just the launch overhead; the outage adds the whole
  // rolled-back segment on top of it.
  EXPECT_GT(b.lost_joules, a.lost_joules);
  // Same useful work either way (the job finishes its iterations).
  EXPECT_NEAR(a.useful_joules, b.useful_joules, 1e-6 * a.useful_joules);
}

}  // namespace
}  // namespace crius
