// crius_sim: command-line cluster-scheduling simulator.
//
// Runs one trace (synthetic or loaded from CSV) on a cluster under one
// scheduler and prints the metric summary; optionally exports the trace,
// per-job records and the throughput timeline as CSV for plotting.
//
// Examples:
//   crius_sim --cluster testbed --trace philly6h --scheduler crius
//   crius_sim --cluster "A100:8x4,V100:2x16" --trace helios --scheduler gavel
//   crius_sim --trace-file workload.csv --scheduler elasticflow --jobs-csv out.csv
//   crius_sim --trace philly-week --scheduler crius --search-depth 5 --seed 9

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>

#include "src/crius.h"

namespace crius {
namespace {

TraceConfig MakeTraceConfig(const std::string& name) {
  if (name == "philly6h") {
    return PhillySixHourConfig();
  }
  if (name == "philly-week") {
    return PhillyWeekHeavyConfig();
  }
  if (name == "helios") {
    return HeliosModerateConfig();
  }
  if (name == "pai") {
    return PaiLowConfig();
  }
  CRIUS_UNREACHABLE("unknown trace style '" + name +
                    "' (want philly6h|philly-week|helios|pai)");
}

int Run(int argc, const char* const* argv) {
  std::string cluster_spec = "testbed";
  std::string trace_style = "philly6h";
  std::string trace_file;
  std::string scheduler_name = "crius";
  int64_t seed = 42;
  int64_t num_jobs = 0;
  int64_t search_depth = 3;
  double load = 0.0;
  double deadline_fraction = 0.0;
  bool deadline_aware = false;
  bool no_profiling_cost = false;
  double execution_jitter = 0.0;
  double mtbf_hours = 0.0;
  double gpu_mtbf_hours = 0.0;
  double mttr_hours = 0.5;
  double straggler_rate = 0.0;
  double straggler_slowdown = 1.5;
  double straggler_duration_hours = 0.5;
  std::string failure_trace;
  std::string save_failure_trace;
  double checkpoint_interval = 0.0;
  double checkpoint_cost = 30.0;
  bool checkpoint_young_daly = false;
  bool reconfig = false;
  double reconfig_margin = -1.0;
  double reconfig_cooldown = -1.0;
  int64_t reconfig_max_per_round = -1;
  bool power = false;
  std::string dvfs = "nominal";
  std::string objective_weights;
  std::string power_csv;
  std::string trace_out;
  std::string jobs_csv;
  std::string timeline_csv;
  std::string events_csv;
  std::string trace_json;
  std::string log_level;
  bool counters = false;

  FlagSet flags("crius_sim", "Run a Crius cluster-scheduling simulation");
  flags.String("cluster", &cluster_spec,
               "testbed | simulated | motivation | spec like 'A100:8x4,A40:4x2'");
  flags.String("trace", &trace_style, "philly6h | philly-week | helios | pai");
  flags.String("trace-file", &trace_file, "load the workload from a trace CSV instead");
  flags.String("scheduler", &scheduler_name,
               "crius | crius-na | crius-nh | crius-fair | crius-solver | fcfs | gandiva | "
               "gavel | tiresias | elasticflow | elasticflow-strict");
  flags.Int("seed", &seed, "random seed for trace synthesis and profiling noise");
  flags.Int("jobs", &num_jobs, "override the trace's job count (0 = keep default)");
  flags.Int("search-depth", &search_depth, "Crius scaling-search depth (Fig. 21)");
  flags.Double("load", &load, "override the trace's offered load (0 = keep default)");
  flags.Double("deadline-fraction", &deadline_fraction,
               "fraction of jobs carrying deadlines (§8.5)");
  flags.Bool("deadline-aware", &deadline_aware, "run Crius in deadline-aware mode");
  flags.Bool("no-profiling-cost", &no_profiling_cost,
             "skip charging Crius's Cell-profiling delay");
  flags.Double("execution-jitter", &execution_jitter,
               "per-placement iteration-time jitter (0 = pure simulation)");
  flags.Double("mtbf-hours", &mtbf_hours,
               "per-node mean time between failures (0 = no node failures)");
  flags.Double("gpu-mtbf-hours", &gpu_mtbf_hours,
               "per-GPU mean time between failures (0 = no GPU failures)");
  flags.Double("mttr-hours", &mttr_hours, "mean time to repair a failure");
  flags.Double("straggler-rate", &straggler_rate,
               "expected straggler windows per node per hour (0 = none)");
  flags.Double("straggler-slowdown", &straggler_slowdown,
               "nominal straggler iteration-time factor (> 1)");
  flags.Double("straggler-duration-hours", &straggler_duration_hours,
               "mean straggler-window length");
  flags.String("failure-trace", &failure_trace,
               "load the failure schedule from this CSV instead of generating one");
  flags.String("save-failure-trace", &save_failure_trace,
               "write the injected failure schedule to this CSV");
  flags.Double("checkpoint-interval", &checkpoint_interval,
               "periodic checkpoint interval in seconds (0 = no checkpointing)");
  flags.Double("checkpoint-cost", &checkpoint_cost, "seconds per checkpoint write");
  flags.Bool("checkpoint-young-daly", &checkpoint_young_daly,
             "derive the checkpoint interval from --mtbf-hours via Young/Daly");
  flags.Bool("reconfig", &reconfig,
             "live reconfiguration (src/reconfig): migrate running jobs when the modeled "
             "remaining-time gain beats the migration cost plus a hysteresis margin");
  flags.Double("reconfig-margin", &reconfig_margin,
               "reconfig hysteresis margin in seconds (< 0 = default)");
  flags.Double("reconfig-cooldown", &reconfig_cooldown,
               "minimum seconds between migrations of one job (< 0 = default)");
  flags.Int("reconfig-max-per-round", &reconfig_max_per_round,
            "migration cap per scheduling round, 0 = unlimited (< 0 = default)");
  flags.Bool("power", &power,
             "energy accounting (src/power): integrate per-node joules over the "
             "timeline and report the useful/idle/lost split");
  flags.String("dvfs", &dvfs,
               "DVFS state under --power: nominal | balanced | powersave (non-nominal "
               "states scale power draw down and iteration times up)");
  flags.String("objective-weights", &objective_weights,
               "Crius multi-objective weights 'throughput,energy,fragmentation,fairness' "
               "(e.g. '1,0.5,0,0'; default pure throughput, bit-identical decisions)");
  flags.String("power-csv", &power_csv,
               "write per-node energy totals to this CSV (implies --power)");
  flags.String("save-trace", &trace_out, "write the synthesized trace to this CSV");
  flags.String("jobs-csv", &jobs_csv, "write per-job records to this CSV");
  flags.String("timeline-csv", &timeline_csv, "write the throughput timeline to this CSV");
  flags.String("events-csv", &events_csv, "write the scheduling-event log to this CSV");
  flags.String("trace-json", &trace_json,
               "write a Chrome trace (chrome://tracing / Perfetto) to this file");
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
      std::fprintf(stderr, "crius_sim: bad --log-level '%s' (want debug|info|warning|error|off)\n",
                   log_level.c_str());
      return 1;
    }
    SetLogLevel(*parsed);
  }

  if (!trace_json.empty()) {
    TraceRecorder::Global().SetEnabled(true);
  }
  // SIGINT/SIGTERM stop the simulation at the next step boundary; partial
  // CSV/Chrome-trace outputs are still flushed below before exiting 128+sig.
  InstallShutdownHandler();

  Cluster cluster = MakeNamedCluster(cluster_spec);
  PerformanceOracle oracle(cluster, static_cast<uint64_t>(seed));

  std::vector<TrainingJob> trace;
  if (!trace_file.empty()) {
    trace = ReadTraceCsvFile(trace_file);
    std::printf("Loaded %zu jobs from %s\n", trace.size(), trace_file.c_str());
  } else {
    TraceConfig config = MakeTraceConfig(trace_style);
    config.seed = static_cast<uint64_t>(seed);
    if (num_jobs > 0) {
      config.num_jobs = static_cast<int>(num_jobs);
    }
    if (load > 0.0) {
      config.load = load;
    }
    config.deadline_fraction = deadline_fraction;
    trace = GenerateTrace(cluster, oracle, config);
    std::printf("Synthesized %zu jobs (%s) for cluster %s\n", trace.size(),
                config.name.c_str(), ClusterSpecString(cluster).c_str());
  }
  if (!trace_out.empty()) {
    CRIUS_CHECK_MSG(WriteTraceCsvFile(trace, trace_out), "cannot write " << trace_out);
    std::printf("Trace written to %s\n", trace_out.c_str());
  }

  SchedulerOptions sched_options{.search_depth = static_cast<int>(search_depth),
                                 .deadline_aware = deadline_aware};
  if (!objective_weights.empty()) {
    const std::optional<MultiObjectiveConfig> multi =
        MultiObjectiveConfig::Parse(objective_weights);
    if (!multi.has_value()) {
      std::fprintf(stderr,
                   "crius_sim: bad --objective-weights '%s' (want 4 non-negative numbers "
                   "'throughput,energy,fragmentation,fairness')\n",
                   objective_weights.c_str());
      return 1;
    }
    sched_options.multi = *multi;
  }
  auto scheduler = MakeNamedScheduler(scheduler_name, &oracle, sched_options);
  SimConfig sim_config;
  sim_config.charge_profiling = !no_profiling_cost;
  sim_config.execution_jitter = execution_jitter;
  // Any export that reconstructs per-job activity needs the event log.
  sim_config.record_events = !events_csv.empty() || !trace_json.empty() || counters;

  // --- Fault model -----------------------------------------------------------
  sim_config.checkpoint.interval = checkpoint_interval;
  sim_config.checkpoint.cost = checkpoint_cost;
  sim_config.checkpoint.young_daly = checkpoint_young_daly;
  sim_config.node_mtbf = mtbf_hours * kHour;

  // --- Live reconfiguration --------------------------------------------------
  sim_config.reconfig.enabled = reconfig;
  if (reconfig_margin >= 0.0) {
    sim_config.reconfig.hysteresis_margin = reconfig_margin;
  }
  if (reconfig_cooldown >= 0.0) {
    sim_config.reconfig.cooldown = reconfig_cooldown;
  }
  if (reconfig_max_per_round >= 0) {
    sim_config.reconfig.max_migrations_per_round = static_cast<int>(reconfig_max_per_round);
  }
  // --- Power accounting ------------------------------------------------------
  if (!power_csv.empty()) {
    power = true;  // the per-node CSV needs the ledger
  }
  sim_config.power.enabled = power;
  sim_config.power.dvfs = dvfs;

  const bool faults_requested =
      !failure_trace.empty() || mtbf_hours > 0.0 || gpu_mtbf_hours > 0.0 || straggler_rate > 0.0;
  if (!failure_trace.empty()) {
    sim_config.failures = ReadFailureTraceCsvFile(failure_trace);
    std::printf("Loaded %zu failure events from %s\n", sim_config.failures.size(),
                failure_trace.c_str());
  } else if (faults_requested) {
    FailureInjectorConfig fault_config;
    fault_config.node_mtbf_hours = mtbf_hours;
    fault_config.gpu_mtbf_hours = gpu_mtbf_hours;
    fault_config.mttr_hours = mttr_hours;
    fault_config.straggler_rate = straggler_rate;
    fault_config.straggler_slowdown = straggler_slowdown;
    fault_config.straggler_duration_hours = straggler_duration_hours;
    fault_config.seed = static_cast<uint64_t>(seed);
    // Inject over the same horizon the simulator will run: trace duration x
    // the time cap, plus the 24 h drain window.
    double trace_end = 0.0;
    for (const TrainingJob& job : trace) {
      trace_end = std::max(trace_end, job.submit_time);
    }
    fault_config.horizon =
        std::max(trace_end, 1.0) * sim_config.max_time_factor + 24.0 * kHour;
    sim_config.failures = GenerateFailureSchedule(cluster, fault_config);
    std::printf("Injecting %zu failure events (node MTBF %.1f h, GPU MTBF %.1f h, "
                "straggler rate %.2f /node/h)\n",
                sim_config.failures.size(), mtbf_hours, gpu_mtbf_hours, straggler_rate);
  }
  if (!save_failure_trace.empty()) {
    CRIUS_CHECK_MSG(WriteFailureTraceCsvFile(sim_config.failures, save_failure_trace),
                    "cannot write " << save_failure_trace);
    std::printf("Failure schedule written to %s\n", save_failure_trace.c_str());
  }
  // Report every configuration error at once instead of aborting on the
  // first inside the Simulator constructor.
  const std::vector<std::string> config_errors = sim_config.Validate(cluster);
  if (!config_errors.empty()) {
    for (const std::string& error : config_errors) {
      std::fprintf(stderr, "crius_sim: invalid configuration: %s\n", error.c_str());
    }
    return 1;
  }

  Simulator sim(cluster, sim_config);
  const SimResult result = sim.Run(*scheduler, oracle, trace);
  if (ShutdownRequested()) {
    std::fprintf(stderr,
                 "crius_sim: interrupted (signal %d) at t=%.0f — flushing partial outputs\n",
                 ShutdownSignal(), result.makespan);
  }

  Table table("crius_sim: " + result.scheduler + " on " + ClusterSpecString(cluster));
  table.SetHeader({"metric", "value"});
  table.AddRow({"jobs (finished/unfinished/dropped)",
                Table::FmtInt(result.finished_jobs) + " / " +
                    Table::FmtInt(result.unfinished_jobs) + " / " +
                    Table::FmtInt(result.dropped_jobs)});
  table.AddRow({"avg JCT", Table::Fmt(result.avg_jct / kMinute, 1) + " min"});
  table.AddRow({"median JCT", Table::Fmt(result.median_jct / kMinute, 1) + " min"});
  table.AddRow({"p95 / p99 JCT", Table::Fmt(result.p95_jct / kMinute, 1) + " / " +
                                     Table::Fmt(result.p99_jct / kMinute, 1) + " min"});
  table.AddRow({"max JCT", Table::Fmt(result.max_jct / kHour, 2) + " h"});
  table.AddRow({"avg queuing time", Table::Fmt(result.avg_queue_time / kMinute, 1) + " min"});
  table.AddRow({"p50 / p95 / p99 queuing time",
                Table::Fmt(result.p50_queue_time / kMinute, 1) + " / " +
                    Table::Fmt(result.p95_queue_time / kMinute, 1) + " / " +
                    Table::Fmt(result.p99_queue_time / kMinute, 1) + " min"});
  table.AddRow({"avg cluster throughput", Table::Fmt(result.avg_throughput, 2)});
  table.AddRow({"peak cluster throughput", Table::Fmt(result.peak_throughput, 2)});
  table.AddRow({"avg restarts / job", Table::Fmt(result.avg_restarts, 2)});
  if (faults_requested) {
    table.AddRow({"avg restarts / job (sched / failure)",
                  Table::Fmt(result.avg_sched_restarts, 2) + " / " +
                      Table::Fmt(result.avg_failure_restarts, 2)});
    table.AddRow({"failure events / kills", Table::FmtInt(result.failure_events) + " / " +
                                                Table::FmtInt(result.failure_kills)});
    table.AddRow({"goodput (useful/total GPU-s)", Table::FmtPercent(result.goodput)});
    table.AddRow(
        {"lost GPU-hours", Table::Fmt(result.lost_gpu_seconds / kHour, 1)});
    table.AddRow({"avg / p95 recovery latency",
                  Table::Fmt(result.avg_recovery_latency / kMinute, 1) + " / " +
                      Table::Fmt(result.p95_recovery_latency / kMinute, 1) + " min"});
  }
  if (reconfig) {
    // Rows only under --reconfig, keeping default output byte-identical.
    table.AddRow({"migrations", Table::FmtInt(result.migrations)});
    table.AddRow({"migration pause cost (total)",
                  Table::Fmt(result.migration_cost_seconds / kMinute, 1) + " min"});
    table.AddRow({"modeled migration gain (total)",
                  Table::Fmt(result.migration_gain_seconds / kHour, 2) + " h"});
  }
  if (power) {
    // Rows only under --power, keeping default output byte-identical.
    table.AddRow({"energy (total)", Table::Fmt(result.total_joules / 3.6e6, 2) + " kWh"});
    table.AddRow(
        {"energy split (useful / idle / lost)",
         Table::FmtPercent(result.total_joules > 0.0
                               ? result.useful_joules / result.total_joules
                               : 0.0) +
             " / " +
             Table::FmtPercent(result.total_joules > 0.0
                                   ? result.idle_joules / result.total_joules
                                   : 0.0) +
             " / " +
             Table::FmtPercent(result.total_joules > 0.0
                                   ? result.lost_joules / result.total_joules
                                   : 0.0)});
    table.AddRow({"avg / peak draw", Table::Fmt(result.avg_power_watts / 1000.0, 2) + " / " +
                                         Table::Fmt(result.peak_power_watts / 1000.0, 2) +
                                         " kW"});
  }
  if (deadline_fraction > 0.0) {
    table.AddRow({"deadline satisfactory ratio", Table::FmtPercent(result.deadline_ratio)});
  }
  table.AddRow({"makespan", Table::Fmt(result.makespan / kHour, 2) + " h"});
  table.Print();

  if (!jobs_csv.empty()) {
    CRIUS_CHECK_MSG(WriteJobRecordsCsvFile(result, jobs_csv), "cannot write " << jobs_csv);
    std::printf("Per-job records written to %s\n", jobs_csv.c_str());
  }
  if (!timeline_csv.empty()) {
    CRIUS_CHECK_MSG(WriteTimelineCsvFile(result, timeline_csv),
                    "cannot write " << timeline_csv);
    std::printf("Timeline written to %s\n", timeline_csv.c_str());
  }
  if (!events_csv.empty()) {
    CRIUS_CHECK_MSG(WriteEventsCsvFile(result, events_csv), "cannot write " << events_csv);
    std::printf("Event log written to %s\n", events_csv.c_str());
  }
  if (!power_csv.empty()) {
    std::ofstream out(power_csv);
    CRIUS_CHECK_MSG(out.is_open(), "cannot write " << power_csv);
    out << "node_id,gpu_type,total_gpus,joules\n";
    for (const NodePowerRecord& n : result.node_power) {
      out << n.node_id << ',' << n.gpu_type << ',' << n.total_gpus << ','
          << std::setprecision(std::numeric_limits<double>::max_digits10) << n.joules
          << '\n';
    }
    std::printf("Per-node energy written to %s\n", power_csv.c_str());
  }
  if (!trace_json.empty()) {
    AppendSimTrace(result, TraceRecorder::Global());
    CRIUS_CHECK_MSG(TraceRecorder::Global().WriteJsonFile(trace_json),
                    "cannot write " << trace_json);
    std::printf("Chrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
                trace_json.c_str());
  }
  if (counters) {
    CounterRegistry::Global().PrintTable();
  }
  return ShutdownRequested() ? 128 + ShutdownSignal() : 0;
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  return crius::Run(argc, argv);
}
