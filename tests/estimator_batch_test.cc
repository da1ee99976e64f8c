// Bit-identity of the chain-DP assembly against the original enumeration
// (tests/estimator_reference.h), the PerfModel stage-partition memo, and the
// batch estimation API's contract (DESIGN.md §14).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/oracle.h"
#include "tests/estimator_reference.h"

namespace crius {
namespace {

// The model zoo the golden sweep covers: every family, two sizes each.
const ModelSpec kZoo[] = {
    {ModelFamily::kWideResNet, 1.0, 256}, {ModelFamily::kWideResNet, 4.0, 256},
    {ModelFamily::kBert, 1.3, 128},       {ModelFamily::kBert, 6.7, 128},
    {ModelFamily::kMoe, 1.3, 256},        {ModelFamily::kMoe, 10.0, 256},
};

class EstimatorBatchTest : public ::testing::Test {
 protected:
  EstimatorBatchTest()
      : cluster_(MakeSimulatedCluster()),
        model_(cluster_),
        comm_(cluster_, 42, CommProfile::kMeasureJitter),
        estimator_(&model_, &comm_, 42),
        reference_profiler_(&model_, 42) {}

  Cluster cluster_;
  PerfModel model_;
  CommProfile comm_;
  CellEstimator estimator_;
  // Same seed and jitter as estimator_'s own profiler.
  SingleDeviceProfiler reference_profiler_;
};

void ExpectBitIdentical(const CellEstimate& soa, const CellEstimate& ref,
                        const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(soa.feasible, ref.feasible);
  // Exact double equality on purpose: the chain DP must find the very double
  // the enumeration computed, not merely approximate it.
  EXPECT_EQ(soa.iter_time, ref.iter_time);
  EXPECT_EQ(soa.profile_gpu_seconds, ref.profile_gpu_seconds);
  EXPECT_EQ(soa.plans_assembled, ref.plans_assembled);
  ASSERT_EQ(soa.plan.stages.size(), ref.plan.stages.size());
  EXPECT_EQ(soa.plan.gpu_type, ref.plan.gpu_type);
  EXPECT_EQ(soa.plan.microbatch_factor, ref.plan.microbatch_factor);
  for (size_t s = 0; s < ref.plan.stages.size(); ++s) {
    EXPECT_EQ(soa.plan.stages[s].op_begin, ref.plan.stages[s].op_begin);
    EXPECT_EQ(soa.plan.stages[s].op_end, ref.plan.stages[s].op_end);
    EXPECT_EQ(soa.plan.stages[s].gpus, ref.plan.stages[s].gpus);
    EXPECT_EQ(soa.plan.stages[s].dp, ref.plan.stages[s].dp);
    EXPECT_EQ(soa.plan.stages[s].tp, ref.plan.stages[s].tp);
  }
  EXPECT_EQ(soa.stage_prefers_tp, ref.stage_prefers_tp);
  EXPECT_EQ(soa.stage_tp_range, ref.stage_tp_range);
}

TEST_F(EstimatorBatchTest, ChainPathIsBitIdenticalToReferenceAcrossZoo) {
  int compared = 0;
  for (const ModelSpec& spec : kZoo) {
    for (GpuType type : {GpuType::kA100, GpuType::kA40, GpuType::kV100}) {
      const JobContext ctx = model_.MakeContext(spec, type);
      for (int ngpus : {1, 2, 4, 8, 16, 32, 64}) {
        for (int nstages = 1; nstages <= std::min(ngpus, 16); nstages *= 2) {
          const Cell cell{type, ngpus, nstages};
          const CellEstimate chain = estimator_.Estimate(ctx, cell);
          const CellEstimate ref = EstimateCellReference(comm_, reference_profiler_, ctx, cell);
          ExpectBitIdentical(chain, ref, spec.Name() + " " + cell.ToString());
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 400);  // the sweep actually covered the zoo
}

TEST_F(EstimatorBatchTest, StagesMemoMatchesPartitionStagesAcrossZoo) {
  for (const ModelSpec& spec : kZoo) {
    const JobContext ctx = model_.MakeContext(spec, GpuType::kA100);
    const int num_ops = static_cast<int>(ctx.graph->size());
    for (int ngpus = 1; ngpus <= 64; ngpus *= 2) {
      for (int nstages = 1; nstages <= std::min(ngpus, num_ops); ++nstages) {
        SCOPED_TRACE(spec.Name() + " ngpus " + std::to_string(ngpus) + " nstages " +
                     std::to_string(nstages));
        const std::vector<StageRange>& memo = model_.Stages(ctx, ngpus, nstages);
        const std::vector<StageRange> fresh = PartitionStages(*ctx.graph, ngpus, nstages);
        ASSERT_EQ(memo.size(), fresh.size());
        for (size_t s = 0; s < fresh.size(); ++s) {
          EXPECT_EQ(memo[s].op_begin, fresh[s].op_begin);
          EXPECT_EQ(memo[s].op_end, fresh[s].op_end);
          EXPECT_EQ(memo[s].gpus, fresh[s].gpus);
        }
        // A repeat call, also through another context on the same graph,
        // returns the memoized entry itself.
        EXPECT_EQ(&model_.Stages(ctx, ngpus, nstages), &memo);
        const JobContext other = model_.MakeContext(spec, GpuType::kV100);
        EXPECT_EQ(&model_.Stages(other, ngpus, nstages), &memo);
      }
    }
  }
}

TEST_F(EstimatorBatchTest, ScratchReuseDoesNotChangeResults) {
  const ModelSpec spec{ModelFamily::kBert, 2.6, 128};
  const JobContext ctx = model_.MakeContext(spec, GpuType::kA100);
  const Cell a{GpuType::kA100, 8, 4};
  const Cell b{GpuType::kA100, 16, 8};
  const CellEstimate first_a = estimator_.Estimate(ctx, a);
  // Run a larger Cell through the estimator's scratch vectors, then
  // re-estimate the smaller one: resizing leaves the larger call's values in
  // the slots, so reading a slot this call did not write would change the
  // result.
  (void)estimator_.Estimate(ctx, b);
  const CellEstimate again_a = estimator_.Estimate(ctx, a);
  ExpectBitIdentical(again_a, first_a, "scratch reuse");
}

// Same as above across models: a deeper graph's Cell fills more scratch slots
// than the shallow one reads back.
TEST_F(EstimatorBatchTest, ScratchReuseAcrossModelsDoesNotChangeResults) {
  const JobContext small = model_.MakeContext({ModelFamily::kWideResNet, 1.0, 256},
                                              GpuType::kA100);
  const JobContext large = model_.MakeContext({ModelFamily::kMoe, 10.0, 256}, GpuType::kA100);
  const Cell a{GpuType::kA100, 4, 2};
  const Cell b{GpuType::kA100, 64, 16};
  const CellEstimate first_a = estimator_.Estimate(small, a);
  ExpectBitIdentical(first_a, EstimateCellReference(comm_, reference_profiler_, small, a),
                     "reference");
  (void)estimator_.Estimate(large, b);
  const CellEstimate again_a = estimator_.Estimate(small, a);
  ExpectBitIdentical(again_a, first_a, "scratch reuse across models");
}

class OracleBatchTest : public ::testing::Test {
 protected:
  OracleBatchTest() : cluster_(MakeSimulatedCluster()), oracle_(cluster_, 42) {}

  Cluster cluster_;
  PerformanceOracle oracle_;
};

TEST_F(OracleBatchTest, BatchMatchesScalarEstimates) {
  const ModelSpec spec{ModelFamily::kMoe, 2.4, 256};
  std::vector<Cell> cells;
  for (GpuType type : {GpuType::kA100, GpuType::kV100}) {
    for (int ngpus : {2, 4, 8}) {
      for (int nstages = 1; nstages <= ngpus; nstages *= 2) {
        cells.push_back(Cell{type, ngpus, nstages});
      }
    }
  }
  CellBatchResult batch;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
  ASSERT_EQ(batch.estimates.size(), cells.size());
  ASSERT_EQ(batch.throughput.size(), cells.size());
  EXPECT_EQ(batch.hits + batch.misses, cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    // The batch fills the same cache the scalar path reads: same slot.
    EXPECT_EQ(batch.estimates[i], &oracle_.EstimateCell(spec, cells[i]));
    EXPECT_EQ(batch.throughput[i], oracle_.EstimatedThroughput(spec, cells[i]));
  }
}

TEST_F(OracleBatchTest, SecondBatchIsAllHits) {
  const ModelSpec spec{ModelFamily::kBert, 1.3, 128};
  const std::vector<Cell> cells = {Cell{GpuType::kA100, 4, 1}, Cell{GpuType::kA100, 4, 2},
                                   Cell{GpuType::kA40, 4, 4}};
  CellBatchResult first;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &first);
  EXPECT_EQ(first.misses, cells.size());
  CellBatchResult second;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &second);
  EXPECT_EQ(second.hits, cells.size());
  EXPECT_EQ(second.misses, 0u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(first.estimates[i], second.estimates[i]);  // stable cache slots
  }
}

TEST_F(OracleBatchTest, DuplicateCellsInOneBatchAgree) {
  const ModelSpec spec{ModelFamily::kWideResNet, 2.0, 256};
  const Cell cell{GpuType::kA40, 8, 2};
  const std::vector<Cell> cells = {cell, cell, cell};
  CellBatchResult batch;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
  EXPECT_EQ(batch.estimates[0], batch.estimates[1]);
  EXPECT_EQ(batch.estimates[1], batch.estimates[2]);
  EXPECT_EQ(batch.throughput[0], batch.throughput[1]);
}

TEST_F(OracleBatchTest, EmptyBatchIsANoOp) {
  const ModelSpec spec{ModelFamily::kBert, 1.3, 128};
  CellBatchResult batch;
  batch.estimates.assign(3, nullptr);  // stale state must be cleared
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, nullptr, 0}, &batch);
  EXPECT_TRUE(batch.estimates.empty());
  EXPECT_TRUE(batch.throughput.empty());
  EXPECT_EQ(batch.hits, 0u);
  EXPECT_EQ(batch.misses, 0u);
}

TEST_F(OracleBatchTest, ContextForReturnsStableCachedReference) {
  const ModelSpec spec{ModelFamily::kBert, 2.6, 128};
  const JobContext& a = oracle_.ContextFor(spec, GpuType::kA100);
  const JobContext& b = oracle_.ContextFor(spec, GpuType::kA100);
  EXPECT_EQ(&a, &b);  // same cache slot
  const JobContext& other = oracle_.ContextFor(spec, GpuType::kV100);
  EXPECT_NE(&a, &other);
  // The cached context matches a freshly made one where it matters.
  const JobContext fresh = oracle_.perf_model().MakeContext(spec, GpuType::kA100);
  EXPECT_EQ(a.gpu_type, fresh.gpu_type);
  EXPECT_EQ(a.model_key, fresh.model_key);
  EXPECT_EQ(a.graph, fresh.graph);
  EXPECT_EQ(a.global_batch, fresh.global_batch);
}

}  // namespace
}  // namespace crius
