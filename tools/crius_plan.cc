// crius_plan: inspect the parallelization of one job on one GPU shape.
//
// Shows what the whole pipeline produces for a single (model, GPU type, GPU
// count): the adaptive-parallelism optimum, the per-stage-count alternatives,
// the Cell estimates, the pipeline Gantt of the best plan, and optionally a
// Chrome-trace JSON of one iteration.
//
// Examples:
//   crius_plan --model BERT-2.6B --gpus 8 --type A40
//   crius_plan --model MoE-10B --gpus 16 --type A100 --batch 512 --chrome-trace iter.json

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "bench/gantt.h"
#include "bench/pipeline_engine.h"
#include "src/crius.h"

namespace crius {
namespace {

constexpr ModelFamily kFamilies[] = {ModelFamily::kWideResNet, ModelFamily::kBert,
                                     ModelFamily::kMoe};
// Largest --gpus value. It also bounds the default cluster, which is built
// with twice the GPUs.
constexpr int64_t kMaxGpus = 4096;

// The Table-2 model named `name` at `batch` (0 or less = the family's first
// batch size); std::nullopt for an unknown name.
std::optional<ModelSpec> FindModel(const std::string& name, int64_t batch) {
  for (ModelFamily family : kFamilies) {
    for (double size : SupportedSizes(family)) {
      ModelSpec spec{family, size, batch > 0 ? batch : SupportedBatches(family)[0]};
      if (spec.Name() == name) {
        return spec;
      }
    }
  }
  return std::nullopt;
}

// Checks --model, --type, --gpus and --batch before anything is built from
// them, so a bad value exits 1 naming the flag and its allowed values.
bool ValidateFlags(const std::string& model_name, const std::string& type_name, int64_t gpus,
                   int64_t batch) {
  bool ok = true;
  if (!FindModel(model_name, 0).has_value()) {
    std::string known;
    for (ModelFamily family : kFamilies) {
      for (double size : SupportedSizes(family)) {
        known += " " + ModelSpec{family, size, 1}.Name();
      }
    }
    std::fprintf(stderr, "crius_plan: unknown --model '%s' (known:%s)\n", model_name.c_str(),
                 known.c_str());
    ok = false;
  }
  if (!FindGpuType(type_name).has_value()) {
    std::string known;
    for (GpuType type : AllGpuTypes()) {
      known += (known.empty() ? "" : " | ") + GpuName(type);
    }
    std::fprintf(stderr, "crius_plan: unknown --type '%s' (want %s)\n", type_name.c_str(),
                 known.c_str());
    ok = false;
  }
  if (gpus < 1 || gpus > kMaxGpus || !IsPowerOfTwo(gpus)) {
    std::fprintf(stderr, "crius_plan: bad --gpus %lld (want a power of two from 1 to %lld)\n",
                 static_cast<long long>(gpus), static_cast<long long>(kMaxGpus));
    ok = false;
  }
  if (batch < 0) {
    std::fprintf(stderr,
                 "crius_plan: bad --batch %lld (want a positive global batch size, or 0 for the "
                 "family default)\n",
                 static_cast<long long>(batch));
    ok = false;
  }
  return ok;
}

int Run(int argc, const char* const* argv) {
  std::string model_name = "BERT-2.6B";
  std::string type_name = "A100";
  std::string cluster_spec;
  int64_t gpus = 8;
  int64_t batch = 0;
  int64_t seed = 42;
  std::string chrome_trace;
  std::string trace_json;
  std::string log_level;
  bool counters = false;

  FlagSet flags("crius_plan", "Inspect adaptive parallelization of one job");
  flags.String("model", &model_name, "model name, e.g. BERT-2.6B, WRes-4.0B, MoE-10B");
  flags.String("type", &type_name, "GPU type: A100 | A40 | A10 | V100");
  flags.String("cluster", &cluster_spec,
               "optional cluster spec (defaults to 16 nodes of the chosen type)");
  flags.Int("gpus", &gpus, "GPU count (power of two)");
  flags.Int("batch", &batch, "global batch size (0 = family default)");
  flags.Int("seed", &seed, "profiling-noise seed");
  flags.String("chrome-trace", &chrome_trace,
               "write one iteration of the best plan as Chrome-trace JSON");
  flags.String("trace-json", &trace_json,
               "write a Chrome trace of the planning pipeline itself to this file");
  flags.Bool("counters", &counters, "print the process-wide counter/histogram table");
  flags.String("log-level", &log_level,
               "debug|info|warning|error|off; overrides CRIUS_LOG_LEVEL "
               "(precedence: flag > env > default warning)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (!log_level.empty()) {
    const std::optional<LogLevel> parsed = ParseLogLevel(log_level);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "crius_plan: bad --log-level '%s' (want debug|info|warning|error|off)\n",
                   log_level.c_str());
      return 1;
    }
    SetLogLevel(*parsed);
  }

  if (!ValidateFlags(model_name, type_name, gpus, batch)) {
    return 1;
  }

  if (!trace_json.empty()) {
    TraceRecorder::Global().SetEnabled(true);
  }

  const GpuType type = *FindGpuType(type_name);
  Cluster cluster;
  if (cluster_spec.empty()) {
    const int per_node = type == GpuType::kA100 ? 4 : (type == GpuType::kV100 ? 16 : 2);
    const int nodes = std::max(1, static_cast<int>(gpus) * 2 / per_node);
    cluster.AddNodes(type, nodes, per_node);
  } else {
    std::string error;
    if (!ParseClusterSpec(cluster_spec, &cluster, &error)) {
      std::fprintf(stderr, "crius_plan: bad --cluster '%s': %s\n", cluster_spec.c_str(),
                   error.c_str());
      return 1;
    }
    if (!cluster.HasType(type)) {
      std::fprintf(stderr, "crius_plan: --cluster '%s' has no %s GPUs (--type)\n",
                   cluster_spec.c_str(), GpuName(type).c_str());
      return 1;
    }
  }
  PerformanceOracle oracle(cluster, static_cast<uint64_t>(seed));
  const ModelSpec spec = *FindModel(model_name, batch);
  const JobContext ctx = oracle.perf_model().MakeContext(spec, type);

  std::printf("%s, global batch %lld, on %lldx %s (%d GPUs/node)\n", spec.Name().c_str(),
              static_cast<long long>(spec.global_batch), static_cast<long long>(gpus),
              GpuName(type).c_str(), cluster.GpusPerNode(type));

  // Per-stage-count alternatives and the Cell estimates.
  Table table("Plans by pipeline-stage count");
  table.SetHeader({"stages", "optimal plan", "measured iter (s)", "thr (samples/s)",
                   "Cell estimate (s)", "est. accuracy"});
  for (int nstages : CandidateStageCounts(*ctx.graph, static_cast<int>(gpus))) {
    const ExploreResult r =
        oracle.explorer().ExploreWithinStages(ctx, static_cast<int>(gpus), nstages);
    const Cell cell{type, static_cast<int>(gpus), nstages};
    const CellEstimate& est = oracle.EstimateCell(spec, cell);
    if (!r.best.has_value()) {
      table.AddRow({"P" + std::to_string(nstages), "OOM", "-", "-",
                    est.feasible ? Table::Fmt(est.iter_time, 3) : "OOM", "-"});
      continue;
    }
    std::string acc = "-";
    if (est.feasible) {
      const PlanEval measured = oracle.perf_model().Evaluate(ctx, est.plan);
      acc = Table::FmtPercent(
          1.0 - std::abs(est.iter_time - measured.iter_time) / measured.iter_time);
    }
    table.AddRow({"P" + std::to_string(nstages), r.best->plan.ShortForm(),
                  Table::Fmt(r.best->iter_time, 3),
                  Table::Fmt(spec.global_batch / r.best->iter_time, 1),
                  est.feasible ? Table::Fmt(est.iter_time, 3) : "OOM", acc});
  }
  table.Print();

  const auto& best = oracle.BestAdaptive(spec, type, static_cast<int>(gpus));
  if (!best.has_value()) {
    std::printf("\nNo feasible plan on this shape.\n");
    return 2;
  }
  std::printf("\nAdaptive-parallelism optimum: %s (%.3f s/iter)\n\n%s",
              best->plan.ToString().c_str(), best->iter_time,
              RenderPipelineGantt(oracle.perf_model(), ctx, best->plan, 96).c_str());

  if (!chrome_trace.empty()) {
    const PipelineEngine engine(&oracle.perf_model());
    const IterationTrace trace = engine.Execute(ctx, best->plan);
    std::ofstream out(chrome_trace);
    CRIUS_CHECK_MSG(out.is_open(), "cannot write " << chrome_trace);
    WriteChromeTrace(trace, best->plan, out);
    std::printf("\nChrome trace written to %s (open in chrome://tracing)\n",
                chrome_trace.c_str());
  }
  if (!trace_json.empty()) {
    CRIUS_CHECK_MSG(TraceRecorder::Global().WriteJsonFile(trace_json),
                    "cannot write " << trace_json);
    std::printf("Planning trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
                trace_json.c_str());
  }
  if (counters) {
    CounterRegistry::Global().PrintTable();
  }
  return 0;
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  return crius::Run(argc, argv);
}
