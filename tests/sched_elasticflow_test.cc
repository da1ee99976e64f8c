#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};
const ModelSpec kBert26{ModelFamily::kBert, 2.6, 128};

class ElasticFlowTest : public SchedTestBase {
 protected:
  ElasticFlowTest()
      : SchedTestBase(MakeSimulatedCluster()),
        ls_(&oracle_, ElasticFlowConfig{}),
        strict_(&oracle_, ElasticFlowConfig{.loose_deadlines = false}) {}

  ElasticFlowScheduler ls_;
  ElasticFlowScheduler strict_;
};

TEST_F(ElasticFlowTest, Names) {
  EXPECT_EQ(ls_.name(), "ElasticFlow-LS");
  EXPECT_EQ(strict_.name(), "ElasticFlow");
}

TEST_F(ElasticFlowTest, StaysOnRequestedType) {
  AddQueued(0, kSmall, 8, GpuType::kV100, 0.0);
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_EQ(d.assignments.at(0).type, GpuType::kV100);  // heterogeneity-blind
}

TEST_F(ElasticFlowTest, GrowsAllocationsWithSpareCapacity) {
  // A lone small job in an empty pool gets more than its 1-GPU min share.
  AddQueued(0, kSmall, 2, GpuType::kA100, 0.0);
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_GT(d.assignments.at(0).ngpus, 1);
}

TEST_F(ElasticFlowTest, ShrinksTowardMinSharesUnderLoad) {
  // Many jobs requesting 16 GPUs each in a 320-GPU pool: elastic shrinking
  // admits far more than 320/16 = 20 jobs.
  for (int i = 0; i < 60; ++i) {
    AddQueued(i, kSmall, 16, GpuType::kA40, static_cast<double>(i));
  }
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  CheckCapacity(d);
  EXPECT_GT(d.assignments.size(), 20u);
}

TEST_F(ElasticFlowTest, OverestimatesLargeModelMinShare) {
  // BERT-2.6B's dp-only plan fits no A100 count (weights x optimizer states
  // exceed 40 GiB per replica), so ElasticFlow treats it as inelastic at its
  // requested shape -- the §8.3 overestimation analysis.
  DpView view(&oracle_);
  EXPECT_FALSE(view.MinShare(kBert26, GpuType::kA100, 256).has_value());
  AddQueued(0, kBert26, 8, GpuType::kA100, 0.0);
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_EQ(d.assignments.at(0).ngpus, 8);  // inelastic fallback
}

TEST_F(ElasticFlowTest, MinShareComesFromDpMemory) {
  // WRes-1.0B dp-only fits on a single A100 -> min share 1.
  DpView view(&oracle_);
  const auto min_share = view.MinShare(ModelSpec{ModelFamily::kWideResNet, 1.0, 256},
                                       GpuType::kA100, 256);
  ASSERT_TRUE(min_share.has_value());
  EXPECT_EQ(*min_share, 1);
}

TEST_F(ElasticFlowTest, PoolsAreIndependent) {
  for (int i = 0; i < 30; ++i) {
    AddQueued(i, kSmall, 16, GpuType::kA40, static_cast<double>(i));
  }
  AddQueued(100, kSmall, 4, GpuType::kA10, 0.0);
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.assignments.count(100));
  EXPECT_EQ(d.assignments.at(100).type, GpuType::kA10);
}

TEST_F(ElasticFlowTest, StrictModeDropsHopelessDeadlines) {
  JobState* hopeless = AddQueued(0, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/2000000);
  hopeless->job.deadline = 60.0;  // a minute for a multi-day job
  JobState* fine = AddQueued(1, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/100);
  fine->job.deadline = 7.0 * kDay;
  const ScheduleDecision d = strict_.Schedule(Round(0.0));
  EXPECT_EQ(d.dropped, std::vector<int64_t>{0});
  EXPECT_TRUE(d.assignments.count(1));
}

TEST_F(ElasticFlowTest, StrictModeRaisesShareToMeetDeadline) {
  // The deadline is feasible only with more GPUs than the 1-GPU min share.
  JobState* job = AddQueued(0, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/3000);
  const auto thr1 = oracle_.DpOnlyIterTime(kSmall, GpuType::kA100, 1);
  ASSERT_TRUE(thr1.has_value());
  job->job.deadline = 3000.0 * (*thr1) / 4.0;  // 1 GPU would take 4x too long
  const ScheduleDecision d = strict_.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_GT(d.assignments.at(0).ngpus, 1);
}

TEST_F(ElasticFlowTest, LooseModeNeverDrops) {
  JobState* hopeless = AddQueued(0, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/2000000);
  hopeless->job.deadline = 60.0;
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  EXPECT_TRUE(d.dropped.empty());
}

TEST_F(ElasticFlowTest, HysteresisKeepsRunningAllocation) {
  // A lone running job in an otherwise idle pool is neither shrunk (the freed
  // GPUs would idle) nor regrown for gains below the threshold.
  ElasticFlowScheduler cautious(&oracle_, ElasticFlowConfig{.scale_gain_threshold = 0.30});
  JobState* running = AddRunning(0, kSmall, 64, GpuType::kA100);
  const ScheduleDecision d = cautious.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_EQ(d.assignments.at(0).ngpus, running->ngpus);
}

TEST_F(ElasticFlowTest, ShrinksRunningJobOnlyUnderContention) {
  // The same running job IS shrunk when a crowd of arrivals needs the pool.
  AddRunning(0, kSmall, 64, GpuType::kA100, /*nstages=*/0, /*requested_gpus=*/64);
  for (int i = 1; i <= 40; ++i) {
    AddQueued(i, kSmall, 16, GpuType::kA100, static_cast<double>(i));
  }
  const ScheduleDecision d = ls_.Schedule(Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_LT(d.assignments.at(0).ngpus, 64);
}

TEST_F(ElasticFlowTest, TypeWithEveryGpuFailedPlacesNothing) {
  // Every A100 is down: that pool places nothing (and strict mode drops
  // nothing for it), while the A40 pool schedules as usual.
  for (const NodeInfo& node : cluster_.nodes()) {
    if (node.type == GpuType::kA100) {
      cluster_.MarkFailed(node.id, 0);
    }
  }
  ASSERT_EQ(cluster_.UsableGpus(GpuType::kA100), 0);
  JobState* stranded = AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  stranded->job.deadline = 7.0 * kDay;
  AddQueued(1, kSmall, 4, GpuType::kA40, 1.0);
  for (ElasticFlowScheduler* scheduler : {&ls_, &strict_}) {
    const ScheduleDecision d = scheduler->Schedule(Round(0.0));
    CheckCapacity(d);
    EXPECT_FALSE(d.assignments.count(0)) << scheduler->name();
    EXPECT_TRUE(d.dropped.empty()) << scheduler->name();
    ASSERT_TRUE(d.assignments.count(1)) << scheduler->name();
    EXPECT_EQ(d.assignments.at(1).type, GpuType::kA40);
  }
}

}  // namespace
}  // namespace crius
