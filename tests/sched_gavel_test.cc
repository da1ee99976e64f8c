#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

class GavelTest : public SchedTestBase {
 protected:
  GavelTest() : SchedTestBase(MakeSimulatedCluster()), sched_(&oracle_) {}
  GavelScheduler sched_;
};

TEST_F(GavelTest, PicksHighestDpThroughputType) {
  // With every pool free, the dp-profiled best type for a small BERT is A100.
  AddQueued(0, kSmall, 4, GpuType::kV100, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).type, GpuType::kA100);
}

TEST_F(GavelTest, NeverScalesGpuCounts) {
  AddQueued(0, kSmall, 16, GpuType::kA40, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).ngpus, 16);
}

TEST_F(GavelTest, FallsBackWhenBestTypeFull) {
  AddRunning(100, kSmall, 256, GpuType::kA100);
  AddRunning(110, kSmall, 64, GpuType::kA100);  // A100 pool exhausted
  AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.target.count(0));
  EXPECT_NE(d.target.at(0).type, GpuType::kA100);
}

TEST_F(GavelTest, StickyForRunningJobs) {
  // A job already on A40 is not migrated to a marginally better type.
  const ModelSpec spec{ModelFamily::kWideResNet, 1.0, 256};
  AddRunning(0, spec, 8, GpuType::kA40);
  const Resolved d = Resolve(sched_, Round(0.0));
  ASSERT_TRUE(d.target.count(0));
  // A100 would be faster, but the stickiness bonus keeps it unless the win
  // exceeds kReassignGain -- which it does here (A100 >> A40 for this job),
  // so accept either, but the decision must be deterministic and capacity-ok.
  CheckCapacity(d);
  const Resolved d2 = Resolve(sched_, Round(0.0));
  EXPECT_EQ(d.target.at(0).type, d2.target.at(0).type);
}

TEST_F(GavelTest, DpBlindJobsStillScheduled) {
  // BERT-2.6B has no dp-only profile on A10 (OOM) -- Gavel still places it
  // via the neutral fallback.
  const ModelSpec bert26{ModelFamily::kBert, 2.6, 128};
  AddQueued(0, bert26, 8, GpuType::kA10, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_TRUE(d.target.count(0));
}

TEST_F(GavelTest, NoRoomAnywhereLeavesQueued) {
  AddRunning(100, kSmall, 256, GpuType::kA100);
  AddRunning(110, kSmall, 64, GpuType::kA100);
  AddRunning(101, kSmall, 256, GpuType::kA40);
  AddRunning(111, kSmall, 64, GpuType::kA40);
  AddRunning(102, kSmall, 256, GpuType::kA10);
  AddRunning(112, kSmall, 64, GpuType::kA10);
  AddRunning(103, kSmall, 256, GpuType::kV100);
  AddRunning(113, kSmall, 64, GpuType::kV100);
  AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  EXPECT_FALSE(d.target.count(0));
}

TEST_F(GavelTest, ProcessesAllQueuedWithoutHolBlocking) {
  AddQueued(0, kSmall, 512, GpuType::kA100, 0.0);  // impossible
  AddQueued(1, kSmall, 4, GpuType::kA100, 1.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_FALSE(d.target.count(0));
  EXPECT_TRUE(d.target.count(1));
}

}  // namespace
}  // namespace crius
