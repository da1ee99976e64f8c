// crius_serve: long-running cluster-controller daemon.
//
// Wraps a Scheduler behind a concurrent ingress path: clients connect to a
// Unix domain socket and speak the line-delimited JSON protocol
// (src/serve/protocol.h) to submit/cancel jobs, inject node failures and
// recoveries, and query state. A single controller thread runs incremental
// scheduling rounds on a virtual clock; every accepted command is appended to
// a session log that `--replay` (or the library's ReplaySession) re-executes
// bit-identically through the batch simulator.
//
// Examples:
//   crius_serve --cluster testbed --scheduler crius --socket /tmp/crius.sock
//   crius_serve --cluster testbed --session-log session.csv
//   crius_serve --replay session.csv --jobs-csv jobs.csv --events-csv ev.csv
//
// SIGINT/SIGTERM stop the loop at the next tick, flush the session log and
// any partial CSV exports, and exit 128+signal. A signal-stopped session is
// NOT drained; use the protocol's `shutdown` (default mode `drain`) for a
// replay-identical end.

#include <chrono>
#include <cstdio>
#include <thread>

#include "src/crius.h"

namespace crius {
namespace {

void WriteResultCsvs(const SimResult& result, const std::string& jobs_csv,
                     const std::string& timeline_csv, const std::string& events_csv) {
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
}

void PrintSummary(const char* mode, const SimResult& result) {
  std::printf("%s: %s — %d finished / %d unfinished / %d dropped, makespan %.0f s, "
              "avg JCT %.0f s\n",
              mode, result.scheduler.c_str(), result.finished_jobs, result.unfinished_jobs,
              result.dropped_jobs, result.makespan, result.avg_jct);
}

int Run(int argc, const char* const* argv) {
  std::string cluster_spec = "testbed";
  std::string scheduler_name = "crius";
  int64_t seed = 42;
  int64_t search_depth = 3;
  bool deadline_aware = false;
  bool no_profiling_cost = false;
  double schedule_interval = 5.0 * kMinute;
  double restart_overhead = 60.0;
  bool reconfig = false;
  std::string socket_path = "/tmp/crius_serve.sock";
  std::string session_log_path = "crius_session.csv";
  std::string metrics_csv;
  int64_t metrics_every_ticks = 10;
  std::string log_level;
  double tick_virtual = 60.0;
  double tick_wall = 0.02;
  int64_t queue_capacity = 256;
  int64_t max_pending = 0;
  double starvation_wait = 0.0;
  double power_cap_watts = 0.0;
  std::string dvfs = "nominal";
  std::string replay_path;
  std::string jobs_csv;
  std::string timeline_csv;
  std::string events_csv;
  bool counters = false;
  int64_t threads = 1;

  FlagSet flags("crius_serve", "Crius cluster-controller daemon");
  flags.String("cluster", &cluster_spec,
               "testbed | simulated | motivation | spec like 'A100:8x4,A40:4x2'");
  flags.String("scheduler", &scheduler_name, kSchedulerNamesHelp);
  flags.Int("seed", &seed, "oracle / profiling-noise seed");
  flags.Int("search-depth", &search_depth, "Crius scaling-search depth");
  flags.Bool("deadline-aware", &deadline_aware, "run Crius in deadline-aware mode");
  flags.Bool("no-profiling-cost", &no_profiling_cost,
             "skip charging Crius's Cell-profiling delay");
  flags.Double("schedule-interval", &schedule_interval, "scheduling round interval, seconds");
  flags.Double("restart-overhead", &restart_overhead, "per-restart overhead, seconds");
  flags.Bool("reconfig", &reconfig,
             "live reconfiguration: migrate running jobs when the modeled gain beats the "
             "migration cost (recorded in the session log, so replay matches)");
  flags.String("socket", &socket_path, "Unix domain socket to serve on");
  flags.String("session-log", &session_log_path,
               "append-only session event log (empty = no recording, no replay)");
  flags.String("metrics-csv", &metrics_csv,
               "append periodic metrics-registry snapshot rows to this CSV (empty = off)");
  flags.Int("metrics-every-ticks", &metrics_every_ticks,
            "controller ticks between metrics CSV rows");
  flags.String("log-level", &log_level,
               "debug|info|warning|error|off; overrides CRIUS_LOG_LEVEL "
               "(precedence: flag > env > default warning)");
  flags.Double("tick-virtual-seconds", &tick_virtual,
               "virtual seconds the session clock advances per controller tick");
  flags.Double("tick-wall-seconds", &tick_wall, "wall-clock pause between ticks");
  flags.Int("queue-capacity", &queue_capacity, "ingress command-queue capacity");
  flags.Int("max-pending", &max_pending,
            "reject submissions while this many jobs wait for GPUs (0 = no limit)");
  flags.Double("starvation-wait", &starvation_wait,
               "reject submissions while the oldest queued job has waited longer than this "
               "many virtual seconds (0 = disabled)");
  flags.Double("power-cap-watts", &power_cap_watts,
               "reject submissions while the projected cluster draw (src/power ledger) is "
               "at or above this many watts (0 = disabled; enables power accounting)");
  flags.String("dvfs", &dvfs,
               "DVFS state when power accounting is on: nominal | balanced | powersave "
               "(recorded in the session meta so --replay matches)");
  flags.String("replay", &replay_path,
               "replay this session log through the batch simulator and exit");
  flags.String("jobs-csv", &jobs_csv, "write per-job records to this CSV on exit");
  flags.String("timeline-csv", &timeline_csv, "write the throughput timeline to this CSV");
  flags.String("events-csv", &events_csv, "write the scheduling-event log to this CSV");
  flags.Bool("counters", &counters, "print the counter/histogram table on exit");
  flags.Int("threads", &threads,
            "worker threads for socket connection dispatch, 1..4096 (the scheduler "
            "runs on the controller thread)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (!log_level.empty()) {
    const std::optional<LogLevel> parsed = ParseLogLevel(log_level);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "crius_serve: bad --log-level '%s' (want debug|info|warning|error|off)\n",
                   log_level.c_str());
      return 1;
    }
    SetLogLevel(*parsed);
  }
  if (metrics_every_ticks <= 0) {
    std::fprintf(stderr, "crius_serve: --metrics-every-ticks must be > 0\n");
    return 1;
  }

  if (threads < 1 || threads > ThreadPool::kMaxThreads) {
    std::fprintf(stderr, "crius_serve: --threads must be in 1..%d (got %lld)\n",
                 ThreadPool::kMaxThreads, static_cast<long long>(threads));
    return 1;
  }
  if (queue_capacity < 1) {
    std::fprintf(stderr, "crius_serve: --queue-capacity must be >= 1 (got %lld)\n",
                 static_cast<long long>(queue_capacity));
    return 1;
  }
  {
    Cluster cluster;
    std::string error;
    if (!MakeNamedCluster(cluster_spec, &cluster, &error)) {
      std::fprintf(stderr, "crius_serve: bad --cluster '%s': %s\n", cluster_spec.c_str(),
                   error.c_str());
      return 1;
    }
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));

  if (!replay_path.empty()) {
    const Session session = ReadSessionLogFile(replay_path);
    SessionRuntime runtime;
    std::string error;
    if (!MakeSessionRuntime(session.meta, &runtime, &error)) {
      std::fprintf(stderr, "crius_serve: %s in %s\n", error.c_str(), replay_path.c_str());
      return 1;
    }
    const SimResult result = ReplaySession(session, runtime);
    PrintSummary("replay", result);
    WriteResultCsvs(result, jobs_csv, timeline_csv, events_csv);
    if (counters) {
      CounterRegistry::Global().PrintTable();
    }
    return 0;
  }

  SessionMeta meta;
  meta.cluster_spec = cluster_spec;
  meta.scheduler = scheduler_name;
  meta.seed = static_cast<uint64_t>(seed);
  meta.search_depth = static_cast<int>(search_depth);
  meta.deadline_aware = deadline_aware;
  meta.schedule_interval = schedule_interval;
  meta.restart_overhead = restart_overhead;
  meta.charge_profiling = !no_profiling_cost;
  meta.reconfig = reconfig;
  // --power-cap-watts needs the engine's ledger for the draw signal, so the
  // cap implies power accounting; a non-nominal --dvfs enables it too (it
  // changes realized iteration times and must round-trip through the meta).
  meta.power = power_cap_watts > 0.0 || dvfs != "nominal";
  meta.dvfs = dvfs;
  meta.power_cap_watts = power_cap_watts;
  if (!IsKnownScheduler(meta.scheduler)) {
    std::fprintf(stderr, "crius_serve: unknown scheduler '%s' (want %s)\n",
                 meta.scheduler.c_str(), kSchedulerNamesHelp);
    return 1;
  }

  // The exact runtime the replay path will rebuild from the log's meta row.
  SessionRuntime runtime = MakeSessionRuntime(meta);
  const std::vector<std::string> config_errors = runtime.sim.Validate(runtime.cluster);
  if (!config_errors.empty()) {
    for (const std::string& error : config_errors) {
      std::fprintf(stderr, "crius_serve: invalid configuration: %s\n", error.c_str());
    }
    return 1;
  }

  std::unique_ptr<SessionLog> log;
  if (!session_log_path.empty()) {
    log = std::make_unique<SessionLog>(session_log_path, meta);
  }

  Controller::Config controller_config;
  controller_config.tick_virtual_seconds = tick_virtual;
  controller_config.tick_wall_seconds = tick_wall;
  controller_config.metrics_csv = metrics_csv;
  controller_config.metrics_every_ticks = static_cast<int>(metrics_every_ticks);
  controller_config.queue.capacity = static_cast<size_t>(queue_capacity);
  controller_config.queue.max_pending_jobs = static_cast<int>(max_pending);
  controller_config.queue.starvation_wait = starvation_wait;
  controller_config.queue.power_cap_watts = power_cap_watts;
  Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                        log.get(), controller_config);

  serve::Server server(socket_path, serve::MakeHandler(controller));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "crius_serve: %s\n", error.c_str());
    return 1;
  }

  // SIGINT/SIGTERM stop the controller loop at the next tick; everything
  // below the loop still runs, so partial outputs are flushed.
  InstallShutdownHandler();
  controller.Start();
  std::printf("crius_serve: serving %s with %s on %s (session log: %s)\n",
              ClusterSpecString(runtime.cluster).c_str(), meta.scheduler.c_str(),
              socket_path.c_str(), session_log_path.empty() ? "off" : session_log_path.c_str());
  std::fflush(stdout);

  while (!controller.done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.Stop();
  controller.Join();

  if (controller.interrupted()) {
    std::fprintf(stderr,
                 "crius_serve: interrupted (signal %d) — flushing session log and partial "
                 "outputs (session NOT drained; replay will diverge past this point)\n",
                 ShutdownSignal());
  }
  const SimResult result = controller.TakeResult();
  PrintSummary("serve", result);
  WriteResultCsvs(result, jobs_csv, timeline_csv, events_csv);
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
