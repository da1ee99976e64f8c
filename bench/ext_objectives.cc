// Extension: alternative scheduling objectives (§6's generality claim beyond
// the §8.5 deadline policy).
//
// Crius's Cell estimates are objective-agnostic performance data; swapping the
// upscale policy from throughput-maximization to max-min water-filling trades
// a little aggregate throughput for much more even per-job service. Reported:
// mean/p99 slowdown (JCT over standalone ideal) and Jain's fairness index over
// service rates, plus the usual throughput numbers.
//
// Flags:
//   --jobs N  override the trace's job count (0 = keep the preset's default).
//   --json F  write a BENCH_objectives.json perf-trajectory report to F
//             (compared against bench/baselines/ by crius_benchdiff in CI).

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace crius;
  const int jobs_override = static_cast<int>(BenchFlagInt(argc, argv, "--jobs", 0));

  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);

  TraceConfig config = HeliosModerateConfig();
  config.name = "helios-objective";
  config.seed = 7301;
  config.load = 1.1;
  if (jobs_override > 0) {
    config.num_jobs = jobs_override;
  }
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("Objective study: %zu jobs on %d GPUs\n", trace.size(), cluster.TotalGpus());

  CriusScheduler throughput(&oracle, CriusConfig{});
  CriusScheduler fairness(&oracle,
                          CriusConfig{.objective = {.fairness = 1.0}});
  struct Arm {
    const char* key;  // report-metric prefix
    Scheduler* scheduler;
    SimResult result;
  };
  Arm arms[] = {{"throughput", &throughput, {}}, {"fairness", &fairness, {}}};

  Table table("Extension: throughput-max vs max-min-fairness objective");
  table.SetHeader({"objective", "avg thr", "peak thr", "avg JCT", "avg slowdown",
                   "p99 slowdown", "Jain fairness"});
  for (Arm& arm : arms) {
    Simulator sim(cluster, SimConfig{});
    arm.result = sim.Run(*arm.scheduler, oracle, trace);
    const SimResult& r = arm.result;
    table.AddRow({r.scheduler, Table::Fmt(r.avg_throughput, 0),
                  Table::Fmt(r.peak_throughput, 0), Hours(r.avg_jct),
                  Table::Fmt(r.avg_slowdown, 2), Table::Fmt(r.p99_slowdown, 2),
                  Table::Fmt(r.fairness_index, 3)});
  }
  table.Print();

  std::printf("\nExpected shape: the fairness objective improves the slowdown tail and\n"
              "Jain's index at a modest aggregate-throughput cost -- Cell estimates\n"
              "support either objective unchanged (§6).\n");

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "ext_objectives";
    report.meta["trace"] = config.name;
    report.meta["jobs"] = std::to_string(trace.size());
    for (const Arm& arm : arms) {
      const SimResult& r = arm.result;
      const std::string k = arm.key;
      // Deterministic simulation: tight bounds on the dimensionless ratios,
      // a looser one on the absolute JCT.
      report.AddMetric(k + ".avg_jct_min", r.avg_jct / kMinute, "min", "lower", 0.2);
      report.AddMetric(k + ".p99_slowdown", r.p99_slowdown, "", "lower", 0.15);
      report.AddMetric(k + ".fairness", r.fairness_index, "", "higher", 0.1);
      report.AddMetric(k + ".avg_throughput", r.avg_throughput, "", "higher", 0.15);
    }
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }
  return 0;
}
