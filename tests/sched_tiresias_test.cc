#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

class TiresiasTest : public SchedTestBase {
 protected:
  TiresiasTest() : SchedTestBase(MakePhysicalTestbed()), sched_(&oracle_) {}
  TiresiasScheduler sched_;
};

TEST_F(TiresiasTest, FreshJobsPreemptLongServedOnes) {
  // A long-served running job (level 2) loses its GPUs to a fresh arrival
  // when the pool is contended.
  JobState* old_job = AddRunning(0, kSmall, 32, GpuType::kA40);
  old_job->iters_done = 1.0e6;  // huge attained service
  old_job->iter_time = 1.0;
  AddQueued(1, kSmall, 32, GpuType::kA40, /*submit=*/100.0);
  const Resolved d = Resolve(sched_, Round(200.0));
  CheckCapacity(d);
  EXPECT_TRUE(d.target.count(1));
  EXPECT_FALSE(d.target.count(0));  // preempted
}

TEST_F(TiresiasTest, SameLevelIsFifo) {
  AddQueued(0, kSmall, 32, GpuType::kA40, /*submit=*/50.0);
  AddQueued(1, kSmall, 32, GpuType::kA40, /*submit=*/10.0);
  const Resolved d = Resolve(sched_, Round(60.0));
  EXPECT_TRUE(d.target.count(1));   // earlier submit wins
  EXPECT_FALSE(d.target.count(0));
}

TEST_F(TiresiasTest, NeverScalesOrMigrates) {
  AddQueued(0, kSmall, 8, GpuType::kA10, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).type, GpuType::kA10);
  EXPECT_EQ(d.target.at(0).ngpus, 8);
  EXPECT_EQ(d.target.at(0).nstages, 0);
}

TEST_F(TiresiasTest, RunningJobKeptWhenNoContention) {
  JobState* running = AddRunning(0, kSmall, 16, GpuType::kA40);
  running->iters_done = 1.0e6;
  running->iter_time = 1.0;
  const Resolved d = Resolve(sched_, Round(0.0));
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).ngpus, running->ngpus);
}

TEST_F(TiresiasTest, SkipsUnlaunchableShapes) {
  AddQueued(0, ModelSpec{ModelFamily::kMoe, 27.0, 256}, 2, GpuType::kA10, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_FALSE(d.target.count(0));
}

TEST_F(TiresiasTest, CapacityRespectedUnderPressure) {
  for (int i = 0; i < 20; ++i) {
    AddQueued(i, kSmall, 8, GpuType::kA40, static_cast<double>(i));
  }
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  EXPECT_EQ(d.target.size(), 4u);  // 32 GPUs / 8
}

}  // namespace
}  // namespace crius
