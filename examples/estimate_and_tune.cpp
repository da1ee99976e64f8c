// Deep dive into the Cell estimator and Cell-guided tuner (§5).
//
// Walks a MoE-10B job through the full pipeline:
//   * FLOPs-balanced stage determination (Fig. 7),
//   * single-device profiling of the two grid plans per stage (Fig. 10),
//   * assembly of 2^Ns candidate plans and the per-stage parallelism favors,
//   * pruned tuning vs unpruned full-space search (Fig. 11 / Fig. 13),
// and prints the accuracy/cost bookkeeping at each step.
//
// Build & run:  ./build/examples/estimate_and_tune

#include <cmath>
#include <cstdio>

#include "bench/gantt.h"
#include "src/crius.h"

int main() {
  using namespace crius;

  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 7);
  const ModelSpec spec{ModelFamily::kMoe, 10.0, 256};
  const Cell cell{GpuType::kA40, 16, 4};

  // --- Stage determination ---------------------------------------------------
  const OpGraph& graph = GetOpGraph(spec);
  const auto ranges = PartitionStages(graph, cell.ngpus, cell.nstages);
  Table stages("Stage determination for " + spec.Name() + " on " + cell.ToString());
  stages.SetHeader({"stage", "ops", "share of FLOPs", "GPUs"});
  for (size_t s = 0; s < ranges.size(); ++s) {
    stages.AddRow({Table::FmtInt(static_cast<int64_t>(s)),
                   graph.op(ranges[s].op_begin).name + " .. " +
                       graph.op(ranges[s].op_end - 1).name,
                   Table::FmtPercent(graph.FwdFlops(ranges[s].op_begin, ranges[s].op_end) /
                                     graph.TotalFwdFlops()),
                   Table::FmtInt(ranges[s].gpus)});
  }
  stages.Print();

  // --- Estimation --------------------------------------------------------------
  const CellEstimate& est = oracle.EstimateCell(spec, cell);
  std::printf("\nAssembled %d candidate plans from %zu stage profiles on ONE GPU\n",
              est.plans_assembled, 2 * ranges.size());
  std::printf("Best assembled plan: %s\n", est.plan.ToString().c_str());
  std::printf("Estimated iteration time: %.3f s; profiling cost %.0f GPU-seconds\n",
              est.iter_time, est.profile_gpu_seconds);
  std::printf("Per-stage parallelism favors:");
  for (size_t s = 0; s < est.stage_prefers_tp.size(); ++s) {
    std::printf(" S%zu=%s", s, est.stage_prefers_tp[s] ? "tensor" : "data");
  }
  std::printf("\n");

  const JobContext ctx = oracle.perf_model().MakeContext(spec, cell.gpu_type);
  const PlanEval measured = oracle.perf_model().Evaluate(ctx, est.plan);
  std::printf("Direct measurement of the same plan: %.3f s  (accuracy %.1f%%)\n",
              measured.iter_time,
              (1.0 - std::abs(est.iter_time - measured.iter_time) / measured.iter_time) * 100.0);
  std::printf("Direct profiling would have cost %.0f GPU-seconds (%.1fx more)\n",
              oracle.perf_model().DirectProfileGpuSeconds(ctx, est.plan),
              oracle.perf_model().DirectProfileGpuSeconds(ctx, est.plan) /
                  est.profile_gpu_seconds);

  // --- Tuning ---------------------------------------------------------------------
  const Explorer& explorer = oracle.explorer();
  CellTuner tuner(&explorer);
  const TuneResult pruned = tuner.Tune(ctx, cell, est);
  const TuneResult full = tuner.TuneUnpruned(ctx, cell);
  Table tune("Cell-guided tuning vs unpruned search");
  tune.SetHeader({"search", "plans evaluated", "GPU-seconds", "best plan", "iter (s)"});
  tune.AddRow({"pruned (Cell-guided)", Table::FmtInt(pruned.plans_evaluated),
               Table::Fmt(pruned.tune_gpu_seconds, 0), pruned.best->plan.ToString(),
               Table::Fmt(pruned.best->iter_time, 3)});
  tune.AddRow({"unpruned (full space)", Table::FmtInt(full.plans_evaluated),
               Table::Fmt(full.tune_gpu_seconds, 0), full.best->plan.ToString(),
               Table::Fmt(full.best->iter_time, 3)});
  tune.Print();
  std::printf("\nTuning accuracy %.1f%%, tuning-time reduction %.2fx\n",
              (1.0 - (pruned.best->iter_time - full.best->iter_time) / full.best->iter_time) *
                  100.0,
              full.tune_gpu_seconds / std::max(1.0, pruned.tune_gpu_seconds));

  // --- Pipeline schedule of the tuned plan ------------------------------------
  std::printf("\nPipeline schedule of the tuned plan (glyphs = microbatch indices):\n%s",
              RenderPipelineGantt(oracle.perf_model(), ctx, pruned.best->plan, 96).c_str());
  return 0;
}
