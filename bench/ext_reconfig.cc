// Extension: live reconfiguration vs frozen placements (src/reconfig).
//
// Runs the testbed trace under a burst-plus-failure regime twice per
// scheduler: once with placements frozen for a job's lifetime (the seed
// engine's behavior) and once with --reconfig, where the ReconfigPolicy may
// migrate a *running* job to a better Cell whenever the modeled
// remaining-time gain beats the checkpoint+restart+warm-up cost of the move.
// Node failures strand capacity that frozen FCFS placements can never pick
// back up (the head-of-line job waits at its requested shape while freed
// GPUs idle); the reconfig engine grows or re-splits running jobs into that
// capacity and shrinks them away from distressed hardware.
//
// Reported per node-MTBF rate: goodput (useful / total GPU-seconds), avg and
// p99 JCT, migrations applied, and the modeled pause cost the migrations
// charged. The headline is the goodput / tail-JCT delta at the harshest rate.
//
// Modes:
//   default   MTBF sweep {healthy, 8h, 2h} on the 244-job testbed trace,
//             fcfs and crius, frozen vs --reconfig (12 simulations).
//   --smoke   32-job trace at MTBF 2h, fcfs only; exits non-zero unless
//             (a) at least one migration was applied and (b) reconfig is not
//             worse than frozen on goodput and avg JCT (CI regression gate).
//   --jobs N  override the trace's job count (0 = keep the preset's default).
//   --json F  write a BENCH_reconfig.json perf-trajectory report to F
//             (compared against bench/baselines/ by crius_benchdiff in CI).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/fault/failure_injector.h"

namespace crius {
namespace {

struct RunCell {
  SimResult frozen;
  SimResult reconfig;
};

SimResult RunOne(const Cluster& cluster, const std::vector<TrainingJob>& trace,
                 const std::string& scheduler_name, double mtbf_hours, double trace_end,
                 bool reconfig) {
  SimConfig config;
  config.checkpoint.interval = 30.0 * kMinute;
  if (mtbf_hours > 0.0) {
    FailureInjectorConfig faults;
    faults.node_mtbf_hours = mtbf_hours;
    faults.seed = 42;
    faults.horizon = std::max(trace_end, 1.0) * config.max_time_factor + 24.0 * kHour;
    config.failures = GenerateFailureSchedule(cluster, faults);
    config.node_mtbf = mtbf_hours * kHour;
  }
  config.reconfig.enabled = reconfig;
  // Each run gets a fresh oracle so neither mode benefits from the other's
  // warmed estimate caches; the frozen/reconfig pair therefore sees identical
  // profiling-noise draws and any delta is the policy's.
  PerformanceOracle oracle(cluster, 42);
  std::unique_ptr<Scheduler> scheduler;
  if (scheduler_name == "fcfs") {
    scheduler = std::make_unique<FcfsScheduler>(&oracle);
  } else {
    scheduler = std::make_unique<CriusScheduler>(&oracle, CriusConfig{});
  }
  Simulator sim(cluster, config);
  return sim.Run(*scheduler, oracle, trace);
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  const bool smoke = BenchFlagPresent(argc, argv, "--smoke");
  const int jobs_override = static_cast<int>(BenchFlagInt(argc, argv, "--jobs", 0));

  Cluster cluster = MakePhysicalTestbed();
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  if (smoke) {
    trace_config.num_jobs = 32;
  }
  if (jobs_override > 0) {
    trace_config.num_jobs = jobs_override;
  }
  PerformanceOracle trace_oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, trace_oracle, trace_config);
  double trace_end = 0.0;
  for (const TrainingJob& job : trace) {
    trace_end = std::max(trace_end, job.submit_time);
  }

  const std::vector<double> mtbf_hours = smoke ? std::vector<double>{2.0}
                                               : std::vector<double>{0.0, 8.0, 2.0};
  const std::vector<std::string> schedulers =
      smoke ? std::vector<std::string>{"fcfs"} : std::vector<std::string>{"fcfs", "crius"};
  std::printf("trace %s: %zu jobs on testbed cluster (%s)\n", trace_config.name.c_str(),
              trace.size(), smoke ? "smoke" : "full sweep");

  // [scheduler][rate]
  std::vector<std::vector<RunCell>> results(schedulers.size());
  for (size_t sc = 0; sc < schedulers.size(); ++sc) {
    for (double mtbf : mtbf_hours) {
      RunCell cell;
      cell.frozen = RunOne(cluster, trace, schedulers[sc], mtbf, trace_end,
                           /*reconfig=*/false);
      cell.reconfig = RunOne(cluster, trace, schedulers[sc], mtbf, trace_end,
                             /*reconfig=*/true);
      results[sc].push_back(std::move(cell));
    }
  }

  auto rate_label = [](double mtbf) {
    return mtbf <= 0.0 ? std::string("healthy") : "MTBF " + Table::Fmt(mtbf, 0) + "h";
  };

  Table table("Frozen placements vs live reconfiguration (--reconfig)");
  table.SetHeader({"scheduler", "rate", "mode", "goodput", "avg JCT", "p99 JCT",
                   "migrations", "pause cost"});
  for (size_t sc = 0; sc < schedulers.size(); ++sc) {
    for (size_t ri = 0; ri < mtbf_hours.size(); ++ri) {
      const RunCell& cell = results[sc][ri];
      auto row = [&](const char* mode, const SimResult& r) {
        table.AddRow({schedulers[sc], rate_label(mtbf_hours[ri]), mode,
                      Table::FmtPercent(r.goodput), Minutes(r.avg_jct), Minutes(r.p99_jct),
                      Table::FmtInt(r.migrations),
                      r.migrations > 0 ? Minutes(r.migration_cost_seconds) : std::string("-")});
      };
      row("frozen", cell.frozen);
      row("reconfig", cell.reconfig);
    }
  }
  table.Print();

  // Headline: the harshest rate for the first (fcfs) scheduler — the frozen
  // baseline with head-of-line blocking is where stranded capacity hurts most.
  const RunCell& harsh = results[0].back();
  const double goodput_delta = harsh.reconfig.goodput - harsh.frozen.goodput;
  const double p99_delta = harsh.frozen.p99_jct - harsh.reconfig.p99_jct;
  std::printf("\nAt %s (fcfs): goodput %+.1f pts, p99 JCT %+.1f min, %d migrations\n",
              rate_label(mtbf_hours.back()).c_str(), 100.0 * goodput_delta,
              p99_delta / kMinute, harsh.reconfig.migrations);

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "ext_reconfig";
    report.meta["mode"] = smoke ? "smoke" : "full";
    report.meta["trace"] = trace_config.name;
    report.meta["jobs"] = std::to_string(trace.size());
    report.meta["mtbf_hours"] = Table::Fmt(mtbf_hours.back(), 0);
    // Absolute JCTs of a deterministic simulation are stable, so the bounds
    // can sit tighter than wall-time metrics; goodput is a ratio already.
    report.AddMetric("frozen.goodput", harsh.frozen.goodput, "", "higher", 0.1);
    report.AddMetric("reconfig.goodput", harsh.reconfig.goodput, "", "higher", 0.1);
    report.AddMetric("frozen.avg_jct_min", harsh.frozen.avg_jct / kMinute, "min", "lower", 0.2);
    report.AddMetric("reconfig.avg_jct_min", harsh.reconfig.avg_jct / kMinute, "min", "lower",
                     0.2);
    report.AddMetric("frozen.p99_jct_min", harsh.frozen.p99_jct / kMinute, "min", "lower", 0.2);
    report.AddMetric("reconfig.p99_jct_min", harsh.reconfig.p99_jct / kMinute, "min", "lower",
                     0.2);
    report.AddMetric("migrations", static_cast<double>(harsh.reconfig.migrations), "", "none");
    report.AddMetric("migration_cost_min", harsh.reconfig.migration_cost_seconds / kMinute,
                     "min", "none");
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }

  if (smoke) {
    if (harsh.reconfig.migrations == 0) {
      std::fprintf(stderr, "FAIL: reconfig applied no migration under burst+failure load\n");
      return 1;
    }
    if (harsh.reconfig.goodput < harsh.frozen.goodput - 0.01) {
      std::fprintf(stderr, "FAIL: reconfig goodput %.3f worse than frozen %.3f\n",
                   harsh.reconfig.goodput, harsh.frozen.goodput);
      return 1;
    }
    if (harsh.reconfig.avg_jct > harsh.frozen.avg_jct * 1.05) {
      std::fprintf(stderr, "FAIL: reconfig avg JCT %.0f s worse than frozen %.0f s\n",
                   harsh.reconfig.avg_jct, harsh.frozen.avg_jct);
      return 1;
    }
    std::printf("ext_reconfig smoke OK: %d migrations, goodput %+.1f pts, avg JCT %+.1f min\n",
                harsh.reconfig.migrations, 100.0 * goodput_delta,
                (harsh.frozen.avg_jct - harsh.reconfig.avg_jct) / kMinute);
  }
  return 0;
}
