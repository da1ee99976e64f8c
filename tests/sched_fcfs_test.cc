#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};
const ModelSpec kMedium{ModelFamily::kBert, 1.3, 128};

class FcfsTest : public SchedTestBase {
 protected:
  FcfsTest() : SchedTestBase(MakePhysicalTestbed()), sched_(&oracle_) {}
  FcfsScheduler sched_;
};

TEST_F(FcfsTest, SchedulesInArrivalOrder) {
  AddQueued(0, kSmall, 16, GpuType::kA40, /*submit=*/10.0);
  AddQueued(1, kSmall, 16, GpuType::kA40, /*submit=*/5.0);
  AddQueued(2, kSmall, 16, GpuType::kA40, /*submit=*/20.0);
  const Resolved d = Resolve(sched_, Round(100.0));
  CheckCapacity(d);
  // 32 A40 GPUs fit exactly the two earliest arrivals.
  EXPECT_EQ(d.target.size(), 2u);
  EXPECT_TRUE(d.target.count(1));
  EXPECT_TRUE(d.target.count(0));
  EXPECT_FALSE(d.target.count(2));
}

TEST_F(FcfsTest, HeadOfLineBlocking) {
  AddQueued(0, kSmall, 32, GpuType::kA40, 0.0);  // takes the whole pool
  AddQueued(1, kSmall, 32, GpuType::kA40, 1.0);  // blocked head
  AddQueued(2, kSmall, 2, GpuType::kA40, 2.0);   // would fit, but FIFO blocks it
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_EQ(d.target.size(), 1u);
  EXPECT_TRUE(d.target.count(0));
}

TEST_F(FcfsTest, UsesRequestedShapeVerbatim) {
  AddQueued(0, kMedium, 8, GpuType::kA10, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  ASSERT_TRUE(d.target.count(0));
  const Assignment& a = d.target.at(0);
  EXPECT_EQ(a.type, GpuType::kA10);
  EXPECT_EQ(a.ngpus, 8);
  EXPECT_EQ(a.nstages, 0);  // framework picks the plan
}

TEST_F(FcfsTest, NeverTouchesRunningJobs) {
  JobState* running = AddRunning(0, kSmall, 16, GpuType::kA40);
  AddQueued(1, kSmall, 16, GpuType::kA40, 1.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).ngpus, running->ngpus);
  EXPECT_EQ(d.target.at(0).type, running->gpu_type);
  EXPECT_TRUE(d.target.count(1));
}

TEST_F(FcfsTest, RespectsRunningCapacity) {
  AddRunning(0, kSmall, 32, GpuType::kA40);
  AddQueued(1, kSmall, 2, GpuType::kA40, 1.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_FALSE(d.target.count(1));  // pool exhausted by the running job
}

TEST_F(FcfsTest, NoDrops) {
  AddQueued(0, kSmall, 64, GpuType::kA40, 0.0);  // can never fit (pool is 32)
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_TRUE(d.decision.dropped.empty());
  EXPECT_TRUE(d.target.empty());
}

TEST_F(FcfsTest, Name) {
  EXPECT_EQ(sched_.name(), "FCFS");
}

}  // namespace
}  // namespace crius
