#include "src/parallel/stage_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/model/models.h"
#include "src/util/mathutil.h"
#include "tests/param_print.h"

namespace crius {
namespace {

// ---------- Property sweep over (model, gpus, stages) -------------------------

using PartitionParam = std::tuple<ModelSpec, int, int>;  // spec, ngpus, nstages

// The (model, gpus, stages) grid points PartitionStages accepts: at most one
// stage per GPU and per operator, and at least `min_stages` stages.
std::vector<PartitionParam> PartitionGrid(int min_stages) {
  std::vector<PartitionParam> params;
  for (const ModelSpec& spec : {ModelSpec{ModelFamily::kBert, 1.3, 128},
                                ModelSpec{ModelFamily::kBert, 6.7, 128},
                                ModelSpec{ModelFamily::kWideResNet, 2.0, 256},
                                ModelSpec{ModelFamily::kMoe, 2.4, 256},
                                ModelSpec{ModelFamily::kMoe, 27.0, 512}}) {
    const int ops = static_cast<int>(GetOpGraph(spec).size());
    for (int ngpus : {1, 2, 4, 8, 16, 64}) {
      for (int nstages : {1, 2, 4, 8, 16}) {
        if (nstages >= min_stages && nstages <= std::min(ngpus, ops)) {
          params.emplace_back(spec, ngpus, nstages);
        }
      }
    }
  }
  return params;
}

class PartitionPropertyTest : public ::testing::TestWithParam<PartitionParam> {};
// A single stage holds every GPU, so balance is checked from two stages up.
class PartitionBalanceTest : public PartitionPropertyTest {};

TEST_P(PartitionPropertyTest, Invariants) {
  const auto& [spec, ngpus, nstages] = GetParam();
  const OpGraph& g = GetOpGraph(spec);
  const std::vector<StageRange> stages = PartitionStages(g, ngpus, nstages);

  // Coverage: contiguous, non-empty, tiles the graph.
  ASSERT_EQ(stages.size(), static_cast<size_t>(nstages));
  size_t expect = 0;
  int total_gpus = 0;
  for (const StageRange& s : stages) {
    EXPECT_EQ(s.op_begin, expect);
    EXPECT_GT(s.op_end, s.op_begin);
    EXPECT_TRUE(IsPowerOfTwo(s.gpus)) << "stage gpus " << s.gpus;
    EXPECT_GE(s.gpus, 1);
    expect = s.op_end;
    total_gpus += s.gpus;
  }
  EXPECT_EQ(expect, g.size());
  EXPECT_EQ(total_gpus, ngpus);
}

TEST_P(PartitionBalanceTest, FlopsReasonablyBalanced) {
  const auto& [spec, ngpus, nstages] = GetParam();
  const OpGraph& g = GetOpGraph(spec);
  const std::vector<StageRange> stages = PartitionStages(g, ngpus, nstages);
  // Per-GPU load of any stage should not exceed a few times the ideal share
  // (single operators bound how fine the split can get).
  const double ideal = g.TotalFwdFlops() / static_cast<double>(ngpus);
  for (const StageRange& s : stages) {
    const double per_gpu = g.FwdFlops(s.op_begin, s.op_end) / static_cast<double>(s.gpus);
    EXPECT_LT(per_gpu, 6.0 * ideal + 1e-6) << spec.Name() << " P" << nstages;
  }
}

TEST_P(PartitionPropertyTest, Deterministic) {
  const auto& [spec, ngpus, nstages] = GetParam();
  const OpGraph& g = GetOpGraph(spec);
  const auto a = PartitionStages(g, ngpus, nstages);
  const auto b = PartitionStages(g, ngpus, nstages);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op_begin, b[i].op_begin);
    EXPECT_EQ(a[i].op_end, b[i].op_end);
    EXPECT_EQ(a[i].gpus, b[i].gpus);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionPropertyTest, ::testing::ValuesIn(PartitionGrid(1)));
INSTANTIATE_TEST_SUITE_P(Sweep, PartitionBalanceTest, ::testing::ValuesIn(PartitionGrid(2)));

// ---------- Targeted behaviours -----------------------------------------------

TEST(PartitionStagesTest, SingleStageGetsEverything) {
  const OpGraph& g = GetOpGraph(ModelSpec{ModelFamily::kBert, 1.3, 128});
  const auto stages = PartitionStages(g, 8, 1);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].op_begin, 0u);
  EXPECT_EQ(stages[0].op_end, g.size());
  EXPECT_EQ(stages[0].gpus, 8);
}

TEST(PartitionStagesTest, UniformModelSplitsEvenly) {
  // A uniform 8-op model over 8 GPUs in 4 stages: 2 ops / 2 GPUs each.
  OpGraph g;
  for (int i = 0; i < 8; ++i) {
    Operator op;
    op.name = "op" + std::to_string(i);
    op.fwd_flops_per_sample = 100.0;
    op.param_bytes = 10.0;
    op.act_bytes_per_sample = 1.0;
    g.Add(op);
  }
  g.Finalize();
  const auto stages = PartitionStages(g, 8, 4);
  for (const StageRange& s : stages) {
    EXPECT_EQ(s.op_end - s.op_begin, 2u);
    EXPECT_EQ(s.gpus, 2);
  }
}

TEST(PartitionStagesTest, BoundariesPreferSmallComm) {
  // Equal FLOPs everywhere, but one cheap boundary: the split must use it.
  OpGraph g;
  for (int i = 0; i < 4; ++i) {
    Operator op;
    op.name = "op" + std::to_string(i);
    op.fwd_flops_per_sample = 100.0;
    op.param_bytes = 10.0;
    op.act_bytes_per_sample = (i == 1) ? 1.0 : 1000.0;  // cheap boundary after op 1
    g.Add(op);
  }
  g.Finalize();
  const auto stages = PartitionStages(g, 2, 2);
  EXPECT_EQ(stages[0].op_end, 2u);
}

TEST(PartitionStagesTest, TwoStagesAlwaysSplitEvenly) {
  // A power of two is the sum of two powers of two only as half + half, so a
  // 2-stage split always assigns equal GPU counts regardless of imbalance.
  OpGraph g;
  for (int i = 0; i < 4; ++i) {
    Operator op;
    op.name = "op" + std::to_string(i);
    op.fwd_flops_per_sample = (i == 0) ? 700.0 : 100.0;
    op.param_bytes = 10.0;
    op.act_bytes_per_sample = 1.0;
    g.Add(op);
  }
  g.Finalize();
  const auto stages = PartitionStages(g, 8, 2);
  EXPECT_EQ(stages[0].gpus, 4);
  EXPECT_EQ(stages[1].gpus, 4);
}

TEST(PartitionStagesTest, GpusFollowFlops) {
  // One heavy op and three light ones over 3 stages: the heavy stage gets
  // the lion's share.
  OpGraph g;
  for (int i = 0; i < 4; ++i) {
    Operator op;
    op.name = "op" + std::to_string(i);
    op.fwd_flops_per_sample = (i == 0) ? 1500.0 : 100.0;
    op.param_bytes = 10.0;
    op.act_bytes_per_sample = 1.0;
    g.Add(op);
  }
  g.Finalize();
  const auto stages = PartitionStages(g, 8, 3);
  EXPECT_EQ(stages[0].op_end, 1u);  // the heavy op sits alone
  EXPECT_GT(stages[0].gpus, stages[1].gpus);
  EXPECT_GT(stages[0].gpus, stages[2].gpus);
}

TEST(PartitionStagesDeathTest, InvalidArguments) {
  const OpGraph& g = GetOpGraph(ModelSpec{ModelFamily::kBert, 1.3, 128});
  EXPECT_DEATH(PartitionStages(g, 6, 2), "power of two");
  EXPECT_DEATH(PartitionStages(g, 4, 8), "invalid stage count");
  EXPECT_DEATH(PartitionStages(g, 4, 0), "invalid stage count");
}

TEST(CandidateStageCountsTest, LogChoices) {
  const OpGraph& g = GetOpGraph(ModelSpec{ModelFamily::kBert, 1.3, 128});
  EXPECT_EQ(CandidateStageCounts(g, 8), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(CandidateStageCounts(g, 1), (std::vector<int>{1}));
}

TEST(CandidateStageCountsTest, CappedByMaxStages) {
  const OpGraph& g = GetOpGraph(ModelSpec{ModelFamily::kBert, 6.7, 128});
  EXPECT_EQ(CandidateStageCounts(g, 64).back(), 16);  // default cap
  EXPECT_EQ(CandidateStageCounts(g, 64, 4).back(), 4);
}

TEST(CandidateStageCountsTest, CappedByGraphSize) {
  OpGraph g;
  for (int i = 0; i < 3; ++i) {
    Operator op;
    op.fwd_flops_per_sample = 1.0;
    op.act_bytes_per_sample = 1.0;
    g.Add(op);
  }
  g.Finalize();
  EXPECT_EQ(CandidateStageCounts(g, 16), (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace crius
