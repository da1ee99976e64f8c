// Tests for the event-driven pipeline execution engine, including the key
// validation: the §5.1 closed-form latency formula agrees with
// dependency-exact execution across the plan space.

#include "bench/pipeline_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>
#include <vector>

#include "src/parallel/explorer.h"
#include "src/parallel/stage_partition.h"
#include "tests/param_print.h"

namespace crius {
namespace {

class PipelineEngineTest : public ::testing::Test {
 protected:
  PipelineEngineTest() : cluster_(MakeSimulatedCluster()), model_(cluster_), engine_(&model_) {}

  ParallelPlan DpPlan(const JobContext& ctx, int ngpus, int nstages) {
    ParallelPlan plan;
    plan.gpu_type = ctx.gpu_type;
    for (const StageRange& r : PartitionStages(*ctx.graph, ngpus, nstages)) {
      plan.stages.push_back(StagePlan{r.op_begin, r.op_end, r.gpus, r.gpus, 1});
    }
    return plan;
  }

  Cluster cluster_;
  PerfModel model_;
  PipelineEngine engine_;
};

TEST_F(PipelineEngineTest, IntervalsRespectDependencies) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = DpPlan(ctx, 8, 4);
  const IterationTrace trace = engine_.Execute(ctx, plan);
  ASSERT_EQ(trace.num_stages(), 4);
  ASSERT_EQ(trace.num_microbatches(), 16);
  for (int s = 0; s < trace.num_stages(); ++s) {
    for (int m = 0; m < trace.num_microbatches(); ++m) {
      const StageInterval& iv = trace.At(s, m);
      EXPECT_EQ(iv.stage, s);
      EXPECT_EQ(iv.microbatch, m);
      EXPECT_GT(iv.finish, iv.start);
      if (m > 0) {
        // A stage is sequential over microbatches.
        EXPECT_GE(iv.start, trace.At(s, m - 1).finish - 1e-12);
      }
      if (s > 0) {
        // A microbatch cannot start before the previous stage produced it
        // (plus the boundary transfer).
        EXPECT_GE(iv.start + 1e-12,
                  trace.At(s - 1, m).finish + trace.boundary_time[static_cast<size_t>(s)]);
      }
    }
  }
}

TEST_F(PipelineEngineTest, StageTimesMatchModel) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kMoe, 2.4, 256},
                                            GpuType::kA40);
  const ParallelPlan plan = DpPlan(ctx, 8, 2);
  const IterationTrace trace = engine_.Execute(ctx, plan);
  for (int s = 0; s < 2; ++s) {
    const StagePlan& sp = plan.stages[static_cast<size_t>(s)];
    const StageEval ev = model_.EvalStage(ctx, StageRange{sp.op_begin, sp.op_end, sp.gpus},
                                          sp.dp, sp.tp, 2);
    EXPECT_DOUBLE_EQ(trace.stage_time[static_cast<size_t>(s)], ev.t_microbatch);
    const StageInterval& iv = trace.At(s, 0);
    EXPECT_NEAR(iv.finish - iv.start, ev.t_microbatch, 1e-12);
  }
}

// --- the headline validation: closed form vs event-level execution ----------

using ValidateParam = std::tuple<ModelSpec, GpuType, int, int>;  // spec, type, gpus, stages

struct Planner {
  Cluster cluster = MakeSimulatedCluster();
  PerfModel model{cluster};
  Explorer explorer{&model};
};

Planner& SharedPlanner() {
  static Planner planner;
  return planner;
}

// The (model, type, gpus, stages) grid points the explorer can plan: at most
// one stage per GPU and per operator, and some plan within the stage count
// fits in memory.
std::vector<ValidateParam> PlannableGrid() {
  Planner& p = SharedPlanner();
  std::vector<ValidateParam> params;
  for (const ModelSpec& spec : {ModelSpec{ModelFamily::kBert, 1.3, 128},
                                ModelSpec{ModelFamily::kBert, 6.7, 128},
                                ModelSpec{ModelFamily::kWideResNet, 2.0, 256},
                                ModelSpec{ModelFamily::kMoe, 10.0, 256}}) {
    for (GpuType type : {GpuType::kA100, GpuType::kA40, GpuType::kV100}) {
      const JobContext ctx = p.model.MakeContext(spec, type);
      for (int ngpus : {4, 16}) {
        for (int nstages : {1, 2, 4, 8}) {
          if (nstages <= std::min<int>(ngpus, static_cast<int>(ctx.graph->size())) &&
              p.explorer.ExploreWithinStages(ctx, ngpus, nstages).best.has_value()) {
            params.emplace_back(spec, type, ngpus, nstages);
          }
        }
      }
    }
  }
  return params;
}

class FormulaValidationTest : public ::testing::TestWithParam<ValidateParam> {};

TEST_P(FormulaValidationTest, ClosedFormTracksEventLevelExecution) {
  const auto& [spec, type, ngpus, nstages] = GetParam();
  Planner& p = SharedPlanner();
  const JobContext ctx = p.model.MakeContext(spec, type);
  const ExploreResult r = p.explorer.ExploreWithinStages(ctx, ngpus, nstages);
  ASSERT_TRUE(r.best.has_value());
  const PipelineEngine engine(&p.model);
  const IterationTrace trace = engine.Execute(ctx, r.best->plan);
  // For constant per-microbatch stage times the §5.1 closed form is an
  // identity of the dependency recurrence, so the two paths must agree to
  // numerical precision -- a mismatch means one implementation drifted.
  const double rel = std::abs(trace.total_time - r.best->iter_time) / r.best->iter_time;
  EXPECT_LT(rel, 1e-9) << spec.Name() << " " << GpuName(type) << " x" << ngpus << " P"
                       << nstages << ": engine " << trace.total_time << " vs formula "
                       << r.best->iter_time;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FormulaValidationTest, ::testing::ValuesIn(PlannableGrid()));

// --- Chrome trace export -------------------------------------------------------

TEST_F(PipelineEngineTest, ChromeTraceIsWellFormedJson) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = DpPlan(ctx, 4, 2);
  const IterationTrace trace = engine_.Execute(ctx, plan);
  std::ostringstream oss;
  WriteChromeTrace(trace, plan, oss);
  const std::string json = oss.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // One complete event per (stage, microbatch) plus the sync span.
  size_t events = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    ++events;
    ++pos;
  }
  EXPECT_EQ(events, static_cast<size_t>(2 * 8) + 1);
  EXPECT_NE(json.find("grad all_reduce"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
}

TEST_F(PipelineEngineTest, BusyAccounting) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = DpPlan(ctx, 8, 4);
  const IterationTrace trace = engine_.Execute(ctx, plan);
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(trace.StageBusySeconds(s),
                16.0 * trace.stage_time[static_cast<size_t>(s)], 1e-9);
  }
  EXPECT_GT(trace.BubbleFraction(), 0.0);
  EXPECT_LT(trace.BubbleFraction(), 0.5);
}

TEST_F(PipelineEngineTest, TotalIncludesSyncAndOverhead) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  const ParallelPlan plan = DpPlan(ctx, 4, 1);  // dp-only: sync exposed
  const IterationTrace trace = engine_.Execute(ctx, plan);
  EXPECT_GT(trace.dp_sync, 0.0);
  EXPECT_NEAR(trace.total_time,
              trace.pipeline_makespan + trace.dp_sync + PerfModel::kIterOverhead, 1e-12);
}

TEST_F(PipelineEngineTest, RejectsInvalidPlan) {
  const JobContext ctx = model_.MakeContext(ModelSpec{ModelFamily::kBert, 1.3, 128},
                                            GpuType::kA100);
  ParallelPlan bad;
  bad.gpu_type = GpuType::kA100;
  bad.stages.push_back(StagePlan{0, 3, 4, 2, 1});  // dp*tp != gpus
  EXPECT_DEATH(engine_.Execute(ctx, bad), "dp\\*tp");
}

}  // namespace
}  // namespace crius
