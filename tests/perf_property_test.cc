// Property sweeps over the performance model and estimator: invariants that
// must hold for EVERY (model, GPU type, GPU count) combination, checked with
// parameterized tests rather than hand-picked examples.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "src/core/estimator.h"
#include "src/util/mathutil.h"
#include "src/parallel/explorer.h"
#include "tests/param_print.h"

namespace crius {
namespace {

using SweepParam = std::tuple<ModelSpec, GpuType, int>;  // spec, type, ngpus

std::vector<ModelSpec> SweepSpecs() {
  return {
      ModelSpec{ModelFamily::kWideResNet, 0.5, 256}, ModelSpec{ModelFamily::kWideResNet, 4.0, 512},
      ModelSpec{ModelFamily::kBert, 0.76, 128},      ModelSpec{ModelFamily::kBert, 2.6, 256},
      ModelSpec{ModelFamily::kMoe, 0.69, 256},       ModelSpec{ModelFamily::kMoe, 10.0, 512},
  };
}

class ModelSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  ModelSweepTest() : cluster_(MakeSimulatedCluster()), model_(cluster_) {}

  Cluster cluster_;
  PerfModel model_;
};

// Gradient sync is compared at two replication degrees, so from 4 GPUs up.
class GradientSyncSweepTest : public ModelSweepTest {};

// The (model, GPU type, GPU count) grid over `gpus`.
auto SweepGrid(const std::vector<int>& gpus) {
  return ::testing::Combine(::testing::ValuesIn(SweepSpecs()),
                            ::testing::Values(GpuType::kA100, GpuType::kA40, GpuType::kA10,
                                              GpuType::kV100),
                            ::testing::ValuesIn(gpus));
}

TEST_P(ModelSweepTest, TensorShardingMonotonicallyReducesMemory) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  const StageRange range{0, ctx.graph->size(), ngpus};
  double prev = 1e30;
  for (int tp = 1; tp <= ngpus; tp *= 2) {
    const StageEval ev = model_.EvalStage(ctx, range, ngpus / tp, tp, 1);
    EXPECT_LT(ev.mem_bytes, prev + 1e-6)
        << spec.Name() << " " << GpuName(type) << " tp=" << tp;
    prev = ev.mem_bytes;
    EXPECT_GT(ev.mem_bytes, 0.0);
  }
}

TEST_P(ModelSweepTest, StageTimesArePositiveAndFinite) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  const StageRange range{0, ctx.graph->size(), ngpus};
  for (const PowerOfTwoSplit& split : PowerOfTwoSplits(ngpus)) {
    const StageEval ev = model_.EvalStage(ctx, range, static_cast<int>(split.d),
                                          static_cast<int>(split.t), 1);
    EXPECT_GT(ev.t_microbatch, 0.0);
    EXPECT_TRUE(std::isfinite(ev.t_microbatch));
    EXPECT_GE(ev.t_microbatch, ev.t_compute);
    EXPECT_GE(ev.t_compute, ev.t_compute_single);
    EXPECT_GE(ev.t_dp_sync, 0.0);
  }
}

TEST_P(GradientSyncSweepTest, GradientSyncGrowsWithReplication) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  const StageRange range{0, ctx.graph->size(), ngpus};
  const StageEval d2 = model_.EvalStage(ctx, range, 2, ngpus / 2, 1);
  const StageEval dmax = model_.EvalStage(ctx, range, ngpus, 1, 1);
  EXPECT_GT(dmax.t_dp_sync, 0.0);
  // Full replication syncs whole gradients; hybrid syncs tp-sharded ones.
  EXPECT_GT(dmax.t_dp_sync, d2.t_dp_sync * 0.5);
}

TEST_P(ModelSweepTest, FullExploreBestIsConsistent) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  Explorer explorer(&model_);
  const ExploreResult r = explorer.FullExplore(ctx, ngpus);
  if (!r.best.has_value()) {
    // Infeasible overall: dp-only on one GPU must also be infeasible.
    const StageEval dp = model_.EvalStage(ctx, StageRange{0, ctx.graph->size(), ngpus},
                                          ngpus, 1, 1);
    EXPECT_FALSE(dp.fits);
    return;
  }
  ValidatePlan(r.best->plan, *ctx.graph);
  EXPECT_EQ(r.best->plan.total_gpus(), ngpus);
  EXPECT_EQ(r.best->plan.gpu_type, type);
  const PlanEval eval = model_.Evaluate(ctx, r.best->plan);
  EXPECT_TRUE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.iter_time, r.best->iter_time);
}

TEST_P(ModelSweepTest, EstimatorAgreesWithGroundTruthWithinBand) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  CommProfile comm(cluster_, 42);
  CellEstimator estimator(&model_, &comm, 42);
  for (int nstages : CandidateStageCounts(*ctx.graph, ngpus)) {
    const Cell cell{type, ngpus, nstages};
    const CellEstimate est = estimator.Estimate(ctx, cell);
    if (!est.feasible) {
      continue;
    }
    ValidatePlan(est.plan, *ctx.graph);
    const PlanEval measured = model_.Evaluate(ctx, est.plan);
    ASSERT_TRUE(measured.feasible) << spec.Name() << " " << cell.ToString();
    const double err = std::abs(est.iter_time - measured.iter_time) / measured.iter_time;
    EXPECT_LT(err, 0.15) << spec.Name() << " " << cell.ToString();
    EXPECT_GT(est.profile_gpu_seconds, 0.0);
    EXPECT_EQ(est.stage_tp_range.size(), est.plan.stages.size());
    for (const auto& [lo, hi] : est.stage_tp_range) {
      EXPECT_GE(lo, 1);
      EXPECT_LE(lo, hi);
    }
  }
}

TEST_P(ModelSweepTest, ThroughputNeverDecreasesWithMoreGpus) {
  const auto& [spec, type, ngpus] = GetParam();
  const JobContext ctx = model_.MakeContext(spec, type);
  Explorer explorer(&model_);
  const ExploreResult small = explorer.FullExplore(ctx, ngpus / 2);
  const ExploreResult big = explorer.FullExplore(ctx, ngpus);
  if (small.best.has_value() && big.best.has_value()) {
    // Adaptive parallelism can always replicate the smaller plan's structure,
    // so more GPUs never hurt (up to pipeline-packing effects; allow 2%).
    EXPECT_LT(big.best->iter_time, small.best->iter_time * 1.02)
        << spec.Name() << " " << GpuName(type) << " " << ngpus;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelSweepTest, SweepGrid({2, 8, 32}));
INSTANTIATE_TEST_SUITE_P(Sweep, GradientSyncSweepTest, SweepGrid({8, 32}));

}  // namespace
}  // namespace crius
