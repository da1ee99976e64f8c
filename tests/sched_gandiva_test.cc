#include <gtest/gtest.h>

#include "src/sched/baselines.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

class GandivaTest : public SchedTestBase {
 protected:
  GandivaTest() : SchedTestBase(MakeSimulatedCluster()), sched_(&oracle_) {}
  GandivaScheduler sched_;
};

TEST_F(GandivaTest, PlacesOnAnyTypeWithRoom) {
  AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).ngpus, 4);  // never scales counts
}

TEST_F(GandivaTest, NeverScalesGpuCounts) {
  for (int i = 0; i < 10; ++i) {
    AddQueued(i, kSmall, 8, GpuType::kA40, static_cast<double>(i));
  }
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  for (const auto& [id, a] : d.target) {
    EXPECT_EQ(a.ngpus, 8) << "job " << id;
  }
}

TEST_F(GandivaTest, MigratesRunningJobToClearlyBetterType) {
  // BERT-2.6B on 4 V100s is far slower than on 4 A100s (Fig. 3b); Gandiva's
  // introspection observes the gap and migrates when A100s are free.
  const ModelSpec bert26{ModelFamily::kBert, 2.6, 128};
  AddRunning(0, bert26, 4, GpuType::kV100);
  const Resolved d = Resolve(sched_, Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.target.count(0));
  EXPECT_EQ(d.target.at(0).type, GpuType::kA100);
  EXPECT_EQ(d.target.at(0).ngpus, 4);
}

TEST_F(GandivaTest, MigrationLimitedPerRound) {
  const ModelSpec bert26{ModelFamily::kBert, 2.6, 128};
  AddRunning(0, bert26, 4, GpuType::kV100);
  AddRunning(1, bert26, 4, GpuType::kV100);
  AddRunning(2, bert26, 4, GpuType::kV100);
  const Resolved d = Resolve(sched_, Round(0.0));
  int migrated = 0;
  for (const auto& [id, a] : d.target) {
    if (a.type != GpuType::kV100) {
      ++migrated;
    }
  }
  EXPECT_LE(migrated, GandivaScheduler::kMigrationsPerRound);
}

TEST_F(GandivaTest, LimitedBackfillStopsAfterManyBlocked) {
  // Fill A100/A40/A10 pools; then many blocked big jobs followed by a small
  // one far down the queue: bounded backfill must not reach it.
  AddRunning(100, kSmall, 256, GpuType::kA100);
  AddRunning(110, kSmall, 64, GpuType::kA100);
  AddRunning(101, kSmall, 256, GpuType::kA40);
  AddRunning(111, kSmall, 64, GpuType::kA40);
  AddRunning(102, kSmall, 256, GpuType::kA10);
  AddRunning(112, kSmall, 64, GpuType::kA10);
  AddRunning(103, kSmall, 256, GpuType::kV100);
  for (int i = 0; i < 6; ++i) {
    AddQueued(i, kSmall, 64, GpuType::kA100, static_cast<double>(i));  // all blocked
  }
  AddQueued(50, kSmall, 1, GpuType::kA100, 50.0);  // would fit on V100 leftovers
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_FALSE(d.target.count(50));
}

TEST_F(GandivaTest, SkipsShapesThatCannotLaunch) {
  // MoE-27B cannot start on 2 GPUs of any type; Gandiva leaves it queued.
  AddQueued(0, ModelSpec{ModelFamily::kMoe, 27.0, 256}, 2, GpuType::kA100, 0.0);
  const Resolved d = Resolve(sched_, Round(0.0));
  EXPECT_FALSE(d.target.count(0));
}

TEST_F(GandivaTest, DeterministicTypePick) {
  AddQueued(7, kSmall, 2, GpuType::kA40, 0.0);
  const Resolved a = Resolve(sched_, Round(0.0));
  GandivaScheduler fresh(&oracle_);
  const Resolved b = Resolve(fresh, Round(0.0));
  ASSERT_TRUE(a.target.count(7));
  ASSERT_TRUE(b.target.count(7));
  EXPECT_EQ(a.target.at(7).type, b.target.at(7).type);
}

}  // namespace
}  // namespace crius
