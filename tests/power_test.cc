// Tests for the power subsystem (src/power): DVFS states, the wattage model,
// the joule ledger's arithmetic, the two inertness pins — power accounting
// off (the default) and nominal-DVFS power accounting on must both leave the
// simulation's own outputs byte-identical to the seed — and a Crius run under
// energy-weighted objective weights.

#include "src/power/power.h"

#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"

namespace crius {
namespace {

TEST(DvfsTest, KnownStatesAndLookup) {
  EXPECT_EQ(KnownDvfsStates().size(), 3u);
  EXPECT_TRUE(IsKnownDvfsState("nominal"));
  EXPECT_TRUE(IsKnownDvfsState("balanced"));
  EXPECT_TRUE(IsKnownDvfsState("powersave"));
  EXPECT_FALSE(IsKnownDvfsState("turbo"));
  EXPECT_FALSE(IsKnownDvfsState(""));

  const DvfsState nominal = DvfsStateByName("nominal");
  EXPECT_DOUBLE_EQ(nominal.power_scale, 1.0);
  EXPECT_DOUBLE_EQ(nominal.throughput_scale, 1.0);
  // Every non-nominal state must save power faster than it costs throughput,
  // or engaging it could never reduce energy-per-iteration.
  for (const DvfsState& s : KnownDvfsStates()) {
    EXPECT_GT(s.power_scale, 0.0);
    EXPECT_LE(s.power_scale, 1.0);
    EXPECT_GT(s.throughput_scale, 0.0);
    EXPECT_LE(s.throughput_scale, 1.0);
    EXPECT_LT(s.power_scale, s.throughput_scale + 1e-12);
  }
}

TEST(DvfsDeathTest, UnknownStateAborts) {
  EXPECT_DEATH(DvfsStateByName("turbo"), "unknown DVFS state");
}

TEST(PowerModelTest, DvfsScalesActiveButNotIdle) {
  const PowerModel nominal = PowerModel::Default();
  const PowerModel powersave = PowerModel::Default("powersave");
  EXPECT_DOUBLE_EQ(nominal.ActiveWatts(GpuType::kA100), 400.0);
  EXPECT_DOUBLE_EQ(nominal.IdleWatts(GpuType::kA100), 55.0);
  EXPECT_DOUBLE_EQ(powersave.ActiveWatts(GpuType::kA100), 400.0 * 0.62);
  EXPECT_DOUBLE_EQ(powersave.IdleWatts(GpuType::kA100), 55.0);
  EXPECT_DOUBLE_EQ(CellWatts(nominal, GpuType::kA40, 8), 8 * 300.0);
}

TEST(PowerLedgerTest, IntegratesActiveIdleAndUsefulExactly) {
  Cluster cluster;
  cluster.AddNodes(GpuType::kA100, 1, 4);
  PowerLedger ledger(PowerModel::Default(), cluster);
  EXPECT_DOUBLE_EQ(ledger.CurrentDrawWatts(), 4 * 55.0);

  // 10 s all idle.
  ledger.AdvanceTo(10.0);
  EXPECT_DOUBLE_EQ(ledger.idle_joules(), 4 * 55.0 * 10.0);

  // 10 s with 2 devices busy.
  Allocation alloc;
  alloc.type = GpuType::kA100;
  alloc.node_gpus = {{0, 2}};
  ledger.OnAllocate(alloc);
  EXPECT_DOUBLE_EQ(ledger.CurrentDrawWatts(), 2 * 400.0 + 2 * 55.0);
  ledger.AdvanceTo(20.0);

  // Settle the segment: 20 GPU-seconds held, 15 of them useful.
  ledger.SettleSegment(/*job_id=*/7, GpuType::kA100, /*held=*/20.0, /*useful=*/15.0);
  ledger.OnRelease(alloc);
  ledger.AdvanceTo(30.0);

  const double active = 2 * 400.0 * 10.0;             // 8000 J
  const double idle = 4 * 55.0 * 10.0 * 2 + 2 * 55.0 * 10.0;  // 5500 J
  EXPECT_DOUBLE_EQ(ledger.total_joules(), active + idle);
  EXPECT_DOUBLE_EQ(ledger.useful_joules(), 15.0 * 400.0);
  EXPECT_DOUBLE_EQ(ledger.lost_joules(), active - 15.0 * 400.0);
  // The partition is exact by construction, not within-epsilon.
  EXPECT_DOUBLE_EQ(ledger.total_joules(),
                   ledger.useful_joules() + ledger.idle_joules() + ledger.lost_joules());
  EXPECT_DOUBLE_EQ(ledger.JobJoules(7), 20.0 * 400.0);
  EXPECT_DOUBLE_EQ(ledger.JobJoules(99), 0.0);
  ASSERT_EQ(ledger.nodes().size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.nodes()[0].joules, ledger.total_joules());
}

TEST(PowerLedgerTest, FailedDevicesDrawZero) {
  Cluster cluster;
  cluster.AddNodes(GpuType::kA100, 2, 4);
  PowerLedger ledger(PowerModel::Default(), cluster);
  ASSERT_EQ(cluster.MarkFailed(/*node_id=*/1, /*gpus=*/-1), 4);
  ledger.SyncNode(cluster, 1);
  // Node 1 is fully failed: the cluster draw is node 0's idle floor only.
  EXPECT_DOUBLE_EQ(ledger.CurrentDrawWatts(), 4 * 55.0);
  ledger.AdvanceTo(100.0);
  EXPECT_DOUBLE_EQ(ledger.total_joules(), 4 * 55.0 * 100.0);
  EXPECT_DOUBLE_EQ(ledger.nodes()[1].joules, 0.0);

  cluster.MarkRecovered(1, -1);
  ledger.SyncNode(cluster, 1);
  EXPECT_DOUBLE_EQ(ledger.CurrentDrawWatts(), 8 * 55.0);
}

// --- End-to-end inertness pins ---------------------------------------------

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

std::vector<TrainingJob> SmallTrace() {
  std::vector<TrainingJob> trace;
  for (int i = 0; i < 3; ++i) {
    TrainingJob job;
    job.id = i;
    job.spec = kSmall;
    job.submit_time = 60.0 * i;
    job.iterations = 4000;
    job.requested_gpus = 4;
    job.requested_type = GpuType::kA100;
    trace.push_back(job);
  }
  return trace;
}

SimResult RunCrius(SimConfig config) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  Simulator sim(cluster, std::move(config));
  return sim.Run(sched, oracle, SmallTrace());
}

void ExpectSameSimulation(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit);
    EXPECT_EQ(a.jobs[i].first_start, b.jobs[i].first_start);
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_EQ(a.jobs[i].restarts, b.jobs[i].restarts);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].normalized_throughput, b.timeline[i].normalized_throughput);
    EXPECT_EQ(a.timeline[i].busy_gpus, b.timeline[i].busy_gpus);
  }
  EXPECT_EQ(a.avg_jct, b.avg_jct);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_gpu_seconds, b.total_gpu_seconds);
}

TEST(PowerInertnessTest, DisabledLedgerLeavesResultUntouched) {
  const SimResult off = RunCrius(SimConfig{});
  EXPECT_FALSE(off.power_enabled);
  EXPECT_EQ(off.total_joules, 0.0);
  EXPECT_TRUE(off.node_power.empty());
  for (const ThroughputSample& s : off.timeline) {
    EXPECT_EQ(s.power_watts, 0.0);
  }
}

TEST(PowerInertnessTest, NominalAccountingObservesWithoutPerturbing) {
  // Power accounting at nominal DVFS is a pure observer: every
  // simulation-visible quantity (the bytes the CSV exporters write) is
  // bit-identical to the power-off run; only the new energy fields differ.
  SimConfig power_config;
  power_config.power.enabled = true;
  const SimResult off = RunCrius(SimConfig{});
  const SimResult on = RunCrius(power_config);
  ExpectSameSimulation(off, on);

  EXPECT_TRUE(on.power_enabled);
  EXPECT_GT(on.total_joules, 0.0);
  EXPECT_GT(on.useful_joules, 0.0);
  EXPECT_DOUBLE_EQ(on.total_joules, on.useful_joules + on.idle_joules + on.lost_joules);
  EXPECT_GT(on.avg_power_watts, 0.0);
  EXPECT_GE(on.peak_power_watts, on.avg_power_watts);
  EXPECT_FALSE(on.node_power.empty());
  double node_sum = 0.0;
  for (const NodePowerRecord& n : on.node_power) {
    node_sum += n.joules;
  }
  EXPECT_NEAR(node_sum, on.total_joules, 1e-6 * on.total_joules);
}

TEST(PowerDvfsTest, PowersaveStretchesRunsAndSavesEnergy) {
  SimConfig nominal;
  nominal.power.enabled = true;
  SimConfig powersave;
  powersave.power.enabled = true;
  powersave.power.dvfs = "powersave";
  const SimResult fast = RunCrius(nominal);
  const SimResult slow = RunCrius(powersave);
  ASSERT_GT(fast.finished_jobs, 0);
  ASSERT_EQ(slow.finished_jobs, fast.finished_jobs);
  // Iteration times stretch by 1/throughput_scale...
  EXPECT_GT(slow.makespan, fast.makespan);
  // ...but active watts drop faster, so the busy-dominated run nets savings.
  EXPECT_LT(slow.total_joules, fast.total_joules);
}

TEST(PowerObjectiveTest, WeightedObjectiveStillFinishesTheTrace) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle,
                       CriusConfig{.objective = *CriusObjective::Parse("1,0.5,0.2,0.3")});
  SimConfig sim_config;
  sim_config.power.enabled = true;
  Simulator sim(cluster, sim_config);
  const SimResult r = sim.Run(sched, oracle, SmallTrace());
  EXPECT_EQ(r.finished_jobs, 3);
  EXPECT_GT(r.total_joules, 0.0);
}

}  // namespace
}  // namespace crius
