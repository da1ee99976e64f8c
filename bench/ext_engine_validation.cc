// Extension: validating the §5.1 closed-form pipeline-latency formula against
// dependency-exact, event-driven execution (bench/pipeline_engine).
//
// The engine executes the exact dependency recurrence
// start(s,m) = max(finish(s,m-1), finish(s-1,m) + boundary(s)); for constant
// per-microbatch stage times the closed form (sum of first-pass latencies plus
// (B-1) x the bottleneck stage) is an identity of that recurrence, so the two
// paths must agree EXACTLY -- any discrepancy is an implementation bug in one
// of them. The sweep is a consistency check guarding both against drift.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/pipeline_engine.h"
#include "src/util/stats.h"

int main() {
  using namespace crius;
  Cluster cluster = MakeSimulatedCluster();
  PerfModel model(cluster);
  Explorer explorer(&model);
  PipelineEngine engine(&model);

  std::vector<double> errors;
  double worst = 0.0;
  std::string worst_config;

  Table table("Formula vs event-level execution (worst row per model/type)");
  table.SetHeader({"model", "gpu type", "worst config", "formula (s)", "engine (s)", "error"});

  for (const ModelSpec spec :
       {ModelSpec{ModelFamily::kWideResNet, 1.0, 256}, ModelSpec{ModelFamily::kWideResNet, 4.0, 256},
        ModelSpec{ModelFamily::kBert, 1.3, 128}, ModelSpec{ModelFamily::kBert, 6.7, 128},
        ModelSpec{ModelFamily::kMoe, 2.4, 256}, ModelSpec{ModelFamily::kMoe, 10.0, 256}}) {
    for (GpuType type : AllGpuTypes()) {
      const JobContext ctx = model.MakeContext(spec, type);
      double row_worst = -1.0;
      std::string row_config;
      double row_formula = 0.0;
      double row_engine = 0.0;
      for (int ngpus : {4, 8, 16, 32}) {
        for (int nstages : CandidateStageCounts(*ctx.graph, ngpus)) {
          const ExploreResult r = explorer.ExploreWithinStages(ctx, ngpus, nstages);
          if (!r.best.has_value()) {
            continue;
          }
          const IterationTrace trace = engine.Execute(ctx, r.best->plan);
          const double err =
              std::abs(trace.total_time - r.best->iter_time) / r.best->iter_time;
          errors.push_back(err);
          if (err > row_worst) {
            row_worst = err;
            row_config = "x" + std::to_string(ngpus) + "/P" + std::to_string(nstages);
            row_formula = r.best->iter_time;
            row_engine = trace.total_time;
          }
          if (err > worst) {
            worst = err;
            worst_config = spec.Name() + " " + GpuName(type) + " " + row_config;
          }
        }
      }
      if (row_worst >= 0.0) {
        table.AddRow({spec.Name(), GpuName(type), row_config, Table::Fmt(row_formula, 3),
                      Table::Fmt(row_engine, 3), Table::FmtPercent(row_worst)});
      }
    }
  }
  table.Print();

  std::vector<double> sorted = errors;
  std::printf("\n%zu configurations: mean error %.2f%%, p95 %.2f%%, max %.2f%% (%s)\n",
              errors.size(), Mean(errors) * 100.0, Percentile(sorted, 95.0) * 100.0,
              worst * 100.0, worst_config.c_str());
  std::printf("Zero error expected: the closed form is exact for constant stage times;\n"
              "a non-zero row means the formula and the engine have diverged.\n");
  return 0;
}
