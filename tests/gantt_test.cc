#include "bench/gantt.h"

#include <gtest/gtest.h>

#include "bench/pipeline_engine.h"
#include "src/parallel/stage_partition.h"

namespace crius {
namespace {

class GanttTest : public ::testing::Test {
 protected:
  GanttTest() : cluster_(MakeSimulatedCluster()), model_(cluster_) {}

  ParallelPlan MakePlan(const JobContext& ctx, int ngpus, int nstages) {
    ParallelPlan plan;
    plan.gpu_type = ctx.gpu_type;
    for (const StageRange& r : PartitionStages(*ctx.graph, ngpus, nstages)) {
      plan.stages.push_back(StagePlan{r.op_begin, r.op_end, r.gpus, r.gpus, 1});
    }
    return plan;
  }

  double Bubble(const JobContext& ctx, const ParallelPlan& plan) {
    return PipelineEngine(&model_).Execute(ctx, plan).BubbleFraction();
  }

  Cluster cluster_;
  PerfModel model_;
};

TEST_F(GanttTest, RendersOneRowPerStage) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = MakePlan(ctx, 8, 4);
  const std::string out = RenderPipelineGantt(model_, ctx, plan, 64);
  int rows = 0;
  for (char c : out) {
    rows += c == '\n';
  }
  EXPECT_EQ(rows, 1 + 4);  // header + stages
  EXPECT_NE(out.find("S0"), std::string::npos);
  EXPECT_NE(out.find("S3"), std::string::npos);
  EXPECT_NE(out.find("bubble="), std::string::npos);
}

TEST_F(GanttTest, EveryMicrobatchAppears) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = MakePlan(ctx, 4, 2);  // 8 microbatches, glyphs 0-7
  const std::string out = RenderPipelineGantt(model_, ctx, plan, 128);
  for (char glyph : {'0', '3', '7'}) {
    EXPECT_NE(out.find(glyph), std::string::npos) << "missing microbatch " << glyph;
  }
}

TEST_F(GanttTest, SingleStageHasNoBubble) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = MakePlan(ctx, 4, 1);
  EXPECT_NEAR(Bubble(ctx, plan), 0.0, 1e-9);
}

TEST_F(GanttTest, DeeperPipelinesHaveBubbles) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 2.6, 128},
                                            GpuType::kA40);
  const double b2 = Bubble(ctx, MakePlan(ctx, 8, 2));
  const double b8 = Bubble(ctx, MakePlan(ctx, 8, 8));
  EXPECT_GT(b2, 0.0);
  EXPECT_LT(b2, 1.0);
  EXPECT_GT(b8, 0.0);
}

TEST_F(GanttTest, BubbleNearGpipeFormula) {
  // For balanced stages with negligible comm, bubble ~ (S-1)/(B+S-1).
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 6.7, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = MakePlan(ctx, 4, 4);
  const double bubble = Bubble(ctx, plan);
  const double ideal = 3.0 / (16.0 + 3.0);
  EXPECT_NEAR(bubble, ideal, 0.08);
}

TEST(UniformPartitionTest, SplitsOpsAndGpusEvenly) {
  const OpGraph& g = GetOpGraph(ModelSpec{ModelFamily::kBert, 1.3, 128});  // 50 ops
  const auto stages = PartitionStagesUniform(g, 8, 4);
  ASSERT_EQ(stages.size(), 4u);
  size_t expect = 0;
  for (const StageRange& s : stages) {
    EXPECT_EQ(s.op_begin, expect);
    EXPECT_EQ(s.gpus, 2);
    const size_t count = s.op_end - s.op_begin;
    EXPECT_TRUE(count == 12 || count == 13);
    expect = s.op_end;
  }
  EXPECT_EQ(expect, g.size());
}

TEST(UniformPartitionTest, IgnoresFlopsBalance) {
  // One giant op at the front: uniform splitting leaves it grouped with an
  // equal share of ops, unlike the balanced partitioner.
  OpGraph g;
  for (int i = 0; i < 8; ++i) {
    Operator op;
    op.name = "op" + std::to_string(i);
    op.fwd_flops_per_sample = (i == 0) ? 1e12 : 1.0;
    op.act_bytes_per_sample = 1.0;
    g.Add(op);
  }
  g.Finalize();
  const auto uniform = PartitionStagesUniform(g, 4, 4);
  EXPECT_EQ(uniform[0].op_end - uniform[0].op_begin, 2u);
  EXPECT_EQ(uniform[0].gpus, 1);
  const auto balanced = PartitionStages(g, 4, 4);
  EXPECT_EQ(balanced[0].op_end - balanced[0].op_begin, 1u);  // isolates the giant
  EXPECT_EQ(balanced[0].gpus, 1);
}

}  // namespace
}  // namespace crius
