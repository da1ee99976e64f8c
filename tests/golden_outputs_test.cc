// Golden-output matrix: the one place that checks that the decision CSVs are
// byte-stable. Those are the jobs, timeline and events CSVs that crius_sim
// (--jobs-csv/--timeline-csv/--events-csv) and crius_serve write.
//
// Each row names a scenario and two ways to produce it. The two CSV sets must
// be byte-identical and non-empty, and their FNV-1a hashes are pinned. A row
// whose outcome depends on wall-clock tick timing (a live session whose
// commands land on whichever tick is current) compares live against replay
// only. The global pool has 4 threads and no run may start a parallel section
// on it: a simulation is single-threaded.
//
// Batch runs mirror crius_sim --trace philly6h --jobs N: the named cluster,
// seed 42 for the trace and the oracle, and the event log recorded.
//
// Rows:
//   power          --power off vs on (nominal DVFS): the ledger only observes.
//   reconfig_off   reconfig.enabled = false with every other ReconfigConfig
//                  field moved vs the default config, on the fcfs + MTBF 4 h
//                  run; neither migrates.
//   reconfig_on    the fcfs burst + failure scenario with reconfig, twice: it
//                  migrates, and differs from the same scenario without.
//   rerun          crius through a node failure and recovery, twice.
//   memo_vs_fresh  CriusScheduler vs FreshCriusScheduler (every round ranked
//                  from scratch) through fail / straggle / recover, for the
//                  default placement order and for kBestOfAll. The saturated
//                  version, where the scaling search runs hundreds of times,
//                  is CriusMemoVsFreshTest in crius_placement_golden_test.
//   saved_trace    the synthesized trace vs the same trace after WriteTraceCsv
//                  and ReadTraceCsv (crius_sim --save-trace / --trace-file).
//   live_*         a drained Controller session vs ReplaySession of its log.
//
// To regenerate after an intended behavior change, run the test and copy the
// "actual <row>: Hashes{...}" it prints into the row.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fault/failure_injector.h"
#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/serve/controller.h"
#include "src/serve/replay.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/fresh_crius_scheduler.h"

namespace crius {
namespace {

struct Csvs {
  std::string jobs;
  std::string timeline;
  std::string events;
  int migrations = 0;
  double migration_cost_seconds = 0.0;
  int64_t parallel_sections = 0;  // threadpool.parallel_sections during the run
};

int64_t ParallelSections() {
  return CounterRegistry::Global().CounterValue("threadpool.parallel_sections");
}

Csvs ToCsvs(const SimResult& result, int64_t sections_before) {
  Csvs out;
  std::ostringstream jobs, timeline, events;
  WriteJobRecordsCsv(result, jobs);
  WriteTimelineCsv(result, timeline);
  WriteEventsCsv(result, events);
  out.jobs = jobs.str();
  out.timeline = timeline.str();
  out.events = events.str();
  out.migrations = result.migrations;
  out.migration_cost_seconds = result.migration_cost_seconds;
  out.parallel_sections = ParallelSections() - sections_before;
  return out;
}

// ---------------------------------------------------------------------------
// Batch runs.

using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(PerformanceOracle*)>;

SchedulerFactory Named(const std::string& name) {
  return [name](PerformanceOracle* oracle) { return MakeNamedScheduler(name, oracle); };
}

template <typename Sched>
SchedulerFactory Crius(CriusConfig config) {
  return [config](PerformanceOracle* oracle) { return std::make_unique<Sched>(oracle, config); };
}

struct RunSpec {
  std::string cluster = "testbed";
  int jobs = 24;
  SchedulerFactory scheduler = Named("crius");
  std::vector<FailureEvent> failures;
  // crius_sim --mtbf-hours: node failures drawn by the injector over the run.
  double mtbf_hours = 0.0;
  std::function<void(SimConfig&)> configure = [](SimConfig&) {};
  // Run on the trace as WriteTraceCsv + ReadTraceCsv leave it.
  bool through_trace_csv = false;
};

Csvs Run(const RunSpec& spec) {
  Cluster cluster = MakeNamedCluster(spec.cluster);
  PerformanceOracle oracle(cluster, 42);
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = spec.jobs;
  std::vector<TrainingJob> trace = GenerateTrace(cluster, oracle, trace_config);
  if (spec.through_trace_csv) {
    std::stringstream csv;
    WriteTraceCsv(trace, csv);
    trace = ReadTraceCsv(csv);
  }

  SimConfig config;
  config.record_events = true;
  config.failures = spec.failures;
  if (spec.mtbf_hours > 0.0) {
    // crius_sim's horizon: trace duration x the time cap, plus a day.
    FailureInjectorConfig faults;
    faults.node_mtbf_hours = spec.mtbf_hours;
    faults.seed = 42;
    double trace_end = 1.0;
    for (const TrainingJob& job : trace) {
      trace_end = std::max(trace_end, job.submit_time);
    }
    faults.horizon = trace_end * config.max_time_factor + 24.0 * kHour;
    config.node_mtbf = spec.mtbf_hours * kHour;
    config.failures = GenerateFailureSchedule(cluster, faults);
  }
  spec.configure(config);

  const std::unique_ptr<Scheduler> scheduler = spec.scheduler(&oracle);
  Simulator sim(cluster, config);
  const int64_t sections = ParallelSections();
  return ToCsvs(sim.Run(*scheduler, oracle, trace), sections);
}

using RowRun = std::function<std::pair<Csvs, Csvs>()>;

RowRun Both(RunSpec a, RunSpec b) {
  return [a, b] { return std::make_pair(Run(a), Run(b)); };
}

// ---------------------------------------------------------------------------
// Live sessions.

struct LiveSpec {
  SessionMeta meta;
  // Pushed before Start(): every command lands in the first tick.
  std::function<void(Controller&)> queued = [](Controller&) {};
  // Runs against the live loop, before the draining shutdown.
  std::function<void(Controller&)> script = [](Controller&) {};
  // Runs on the drained controller, its parsed session and the raw log.
  std::function<void(const Controller&, const Session&, const std::string&)> check =
      [](const Controller&, const Session&, const std::string&) {};
};

// Blocks until `done` holds for the controller's latest tick snapshot.
void AwaitStats(const Controller& controller,
                const std::function<bool(const Controller::Stats&)>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done(controller.GetStats())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "controller never got there";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// Blocks until the loop has applied `n` commands, so the next one lands on a
// later tick.
void AwaitApplied(const Controller& controller, uint64_t n) {
  AwaitStats(controller, [n](const Controller::Stats& s) { return s.decisions >= n; });
}

RowRun LiveVsReplay(LiveSpec spec) {
  return [spec] {
    const int64_t sections = ParallelSections();
    SessionRuntime runtime = MakeSessionRuntime(spec.meta);
    std::stringstream log_stream;
    SessionLog log(log_stream, spec.meta);
    // crius_serve's wiring, at a 1 ms tick.
    Controller::Config config;
    config.tick_virtual_seconds = 60.0;
    config.tick_wall_seconds = 0.001;
    config.queue.power_cap_watts = spec.meta.power_cap_watts;
    Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                          &log, config);
    spec.queued(controller);
    controller.Start();
    spec.script(controller);
    EXPECT_FALSE(controller.Shutdown(/*drain=*/true).has_value());
    controller.Join();
    EXPECT_FALSE(controller.interrupted());
    const Csvs live = ToCsvs(controller.TakeResult(), sections);

    const Session session = ReadSessionLog(log_stream);
    spec.check(controller, session, log_stream.str());
    const int64_t replay_sections = ParallelSections();
    return std::make_pair(live, ToCsvs(ReplaySession(session), replay_sections));
  };
}

TrainingJob Job(ModelFamily family, double params_billion, int64_t batch, int64_t iterations,
                int gpus, GpuType type) {
  TrainingJob job;
  job.spec = ModelSpec{family, params_billion, batch};
  job.iterations = iterations;
  job.requested_gpus = gpus;
  job.requested_type = type;
  return job;
}

// ---------------------------------------------------------------------------
// The matrix.

struct Hashes {
  uint64_t jobs;
  uint64_t events;
  uint64_t timeline;
};

struct Row {
  const char* name;
  RowRun run;
  // Golden FNV-1a hashes; nullopt when the outcome depends on tick timing.
  std::optional<Hashes> golden;
  // The run must migrate at least once; when false it must never migrate.
  bool migrates = false;
  // Event kinds the run must record.
  std::vector<std::string> events;
  // When set, the scenario with the row's feature off: it must not migrate,
  // and the row's CSVs must differ from it.
  std::function<Csvs()> contrast;
};

// The burst + failure scenario under FCFS, whose placements stay frozen
// unless the reconfig engine moves them: 32 jobs, 30 min checkpoints, and
// node 0 down from 2 h to 3 h for triggers and stranded-then-freed capacity.
RunSpec ReconfigScenario(bool reconfig) {
  RunSpec spec;
  spec.jobs = 32;
  spec.scheduler = Named("fcfs");
  spec.failures = {FailureEvent{2.0 * kHour, FailureKind::kNodeFail, 0, 0, 1.0},
                   FailureEvent{3.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0}};
  spec.configure = [reconfig](SimConfig& config) {
    config.checkpoint.interval = 30.0 * kMinute;
    config.reconfig.enabled = reconfig;
  };
  return spec;
}

std::vector<Row> Rows() {
  std::vector<Row> rows;

  RunSpec power_off;
  power_off.cluster = "motivation";
  power_off.jobs = 20;
  RunSpec power_on = power_off;
  power_on.configure = [](SimConfig& config) { config.power.enabled = true; };
  rows.push_back(Row{.name = "power",
                     .run = Both(power_off, power_on),
                     .golden = Hashes{0x2b61843ebff9fa48ull, 0xc557c0b6a39100a9ull,
                                      0x38265495f5df79aeull}});

  // crius_sim --cluster testbed --trace philly6h --jobs 24 --scheduler fcfs
  // --mtbf-hours 4 --checkpoint-interval 1800, reconfig never mentioned vs
  // switched off with every knob that would make it migrate turned up.
  RunSpec reconfig_default;
  reconfig_default.scheduler = Named("fcfs");
  reconfig_default.mtbf_hours = 4.0;
  reconfig_default.configure = [](SimConfig& config) { config.checkpoint.interval = 1800.0; };
  RunSpec reconfig_moved = reconfig_default;
  reconfig_moved.configure = [](SimConfig& config) {
    config.checkpoint.interval = 1800.0;
    ReconfigConfig& rc = config.reconfig;
    rc.enabled = false;
    rc.cost = MigrationCostConfig{.restart_overhead = 1.0,
                                  .checkpoint_bandwidth = 1e12,
                                  .checkpoint_cost = 1.0,
                                  .warmup_base = 1.0,
                                  .warmup_per_gpu = 0.0};
    rc.hysteresis_margin = 0.0;
    rc.min_relative_gain = 0.0;
    rc.cooldown = 0.0;
    rc.max_migrations_per_round = 0;
    rc.arrival_burst = 1;
    rc.react_to_departures = false;
    rc.defer_growth_to_queue = false;
    rc.distress_factor = 1.0;
  };
  rows.push_back(Row{.name = "reconfig_off",
                     .run = Both(reconfig_default, reconfig_moved),
                     .golden = Hashes{0x16a119e26c737418ull, 0x1517ecef7e10684full,
                                      0x7d1687b686912887ull},
                     .events = {"node_fail", "node_recover"}});

  rows.push_back(Row{.name = "reconfig_on",
                     .run = Both(ReconfigScenario(true), ReconfigScenario(true)),
                     .golden = Hashes{0xc560cfebde448b20ull, 0x95bb9c3096a5a1e0ull,
                                      0x076a6740d1639629ull},
                     .migrates = true,
                     .contrast = [] { return Run(ReconfigScenario(false)); }});

  RunSpec rerun;
  rerun.failures = {FailureEvent{2.0 * kHour, FailureKind::kNodeFail, 0, 0, 1.0},
                    FailureEvent{4.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0}};
  rows.push_back(Row{.name = "rerun",
                     .run = Both(rerun, rerun),
                     .golden = Hashes{0x0ba3245728a106fdull, 0x93ca1c8667af7c15ull,
                                      0x9723541eaafe935cull},
                     .events = {"node_fail", "node_recover"}});

  CriusConfig best_of_all;
  best_of_all.placement_order = CriusPlacementOrder::kBestOfAll;
  for (const auto& [name, config, golden] :
       {std::tuple{"memo_vs_fresh", CriusConfig{},
                   Hashes{0x0169be6b4edb674cull, 0x597e8e4e09c38392ull, 0x89135852423c4093ull}},
        std::tuple{"memo_vs_fresh_best_of_all", best_of_all,
                   Hashes{0x8a6bba40476a3e9eull, 0x48fff47ef8fcadfeull, 0x4b5c7211c4af1027ull}}}) {
    RunSpec memo;
    memo.scheduler = Crius<CriusScheduler>(config);
    memo.failures = FailStraggleRecover();
    RunSpec fresh = memo;
    fresh.scheduler = Crius<FreshCriusScheduler>(config);
    rows.push_back(Row{.name = name,
                       .run = Both(memo, fresh),
                       .golden = golden,
                       .events = {"node_fail", "node_recover"}});
  }

  RunSpec synthesized;
  RunSpec saved = synthesized;
  saved.through_trace_csv = true;
  rows.push_back(Row{.name = "saved_trace",
                     .run = Both(synthesized, saved),
                     .golden = Hashes{0x0dd2e684b41601b5ull, 0xaba378702c28df84ull,
                                      0xf3bd315b255bcdcfull}});

  // crius_serve defaults (testbed, crius): an arrival burst, a node failure
  // and recovery, then a cancel of the long job so the drain ends. Each
  // command waits for the previous one to be applied, so they land on
  // successive ticks -- which ticks depends on timing.
  LiveSpec live_crius;
  live_crius.script = [](Controller& controller) {
    const auto a = controller.Submit(Job(ModelFamily::kBert, 0.76, 256, 40, 8, GpuType::kA40));
    const auto b = controller.Submit(Job(ModelFamily::kWideResNet, 1.0, 256, 30, 4, GpuType::kA10));
    const auto c = controller.Submit(Job(ModelFamily::kMoe, 1.3, 512, 100000, 8, GpuType::kA40));
    ASSERT_TRUE(a.ok && b.ok && c.ok);
    AwaitApplied(controller, 3);
    ASSERT_FALSE(controller.FailNode(0).has_value());
    AwaitApplied(controller, 4);
    ASSERT_FALSE(controller.RecoverNode(0).has_value());
    AwaitApplied(controller, 5);
    ASSERT_FALSE(controller.Cancel(c.job_id).has_value());
    AwaitApplied(controller, 6);
  };
  live_crius.check = [](const Controller& controller, const Session& session,
                        const std::string&) {
    const Controller::Stats stats = controller.GetStats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.infeasible, 0u);
    EXPECT_EQ(stats.decisions, 6u);
    // The log holds exactly what was injected, in order.
    ASSERT_EQ(session.trace.size(), 3u);
    EXPECT_EQ(session.trace[0].id, 1);
    EXPECT_EQ(session.trace[2].id, 3);
    ASSERT_EQ(session.failures.size(), 2u);
    EXPECT_EQ(session.failures[0].kind, FailureKind::kNodeFail);
    EXPECT_EQ(session.failures[1].kind, FailureKind::kNodeRecover);
    ASSERT_EQ(session.cancels.size(), 1u);
    EXPECT_EQ(session.cancels[0].job_id, 3);
  };
  rows.push_back(Row{.name = "live_crius",
                     .run = LiveVsReplay(live_crius),
                     .events = {"node_fail", "node_recover", "cancel"}});

  // crius_serve --scheduler fcfs --reconfig. The whole script is queued
  // before the loop starts, so it lands in the first tick and the session
  // -- its migrations included -- does not depend on tick timing.
  LiveSpec live_reconfig;
  live_reconfig.meta.scheduler = "fcfs";
  live_reconfig.meta.reconfig = true;
  live_reconfig.queued = [](Controller& controller) {
    ASSERT_TRUE(controller.Submit(Job(ModelFamily::kBert, 0.76, 256, 2000, 8, GpuType::kA40)).ok);
    ASSERT_TRUE(
        controller.Submit(Job(ModelFamily::kWideResNet, 1.0, 256, 1500, 4, GpuType::kA10)).ok);
    ASSERT_TRUE(controller.Submit(Job(ModelFamily::kMoe, 1.3, 512, 800, 8, GpuType::kA40)).ok);
    ASSERT_FALSE(controller.FailNode(0).has_value());
    ASSERT_FALSE(controller.RecoverNode(0).has_value());
  };
  live_reconfig.check = [](const Controller&, const Session& session, const std::string&) {
    EXPECT_TRUE(session.meta.reconfig);  // the replay re-enables it
  };
  rows.push_back(Row{.name = "live_fcfs_reconfig",
                     .run = LiveVsReplay(live_reconfig),
                     .golden = Hashes{0xf1b7927f79c135fcull, 0x576d23690152475aull,
                                      0xfba481ed18a8d72cull},
                     .migrates = true});

  // crius_serve --power-cap-watts 3000: a long 8xA40 job pushes the projected
  // draw over the cap, so a second submit bounces. A rejected submit never
  // reaches the log, so the session does not depend on when it was sent.
  LiveSpec live_power_cap;
  live_power_cap.meta.power = true;
  live_power_cap.meta.power_cap_watts = 3000.0;
  live_power_cap.queued = [](Controller& controller) {
    ASSERT_TRUE(controller.Submit(Job(ModelFamily::kBert, 0.76, 256, 20000, 8, GpuType::kA40)).ok);
  };
  live_power_cap.script = [](Controller& controller) {
    // The admission view is published after the snapshot, so wait one tick
    // past the first that shows the job running.
    uint64_t running_tick = 0;
    AwaitStats(controller, [&running_tick](const Controller::Stats& s) {
      if (running_tick == 0 && s.running_jobs > 0) {
        running_tick = s.ticks;
      }
      return running_tick > 0 && s.ticks > running_tick;
    });
    const auto moe = controller.Submit(Job(ModelFamily::kMoe, 1.3, 512, 15, 8, GpuType::kA40));
    EXPECT_FALSE(moe.ok);
    EXPECT_EQ(moe.reason, RejectReason::kClusterPowerCap);
  };
  live_power_cap.check = [](const Controller&, const Session& session, const std::string& log) {
    EXPECT_NE(log.find("power_cap_watts=3000"), std::string::npos);
    EXPECT_EQ(session.trace.size(), 1u);
  };
  rows.push_back(Row{.name = "live_power_cap",
                     .run = LiveVsReplay(live_power_cap),
                     .golden = Hashes{0xae0afef4ee705108ull, 0x2a121cba375302a6ull,
                                      0x3c6edcb22d2344ffull}});

  return rows;
}

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class GoldenOutputsTest : public ::testing::TestWithParam<Row> {
 protected:
  void SetUp() override { ThreadPool::SetGlobalThreads(4); }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

bool HasRows(const std::string& csv) { return std::count(csv.begin(), csv.end(), '\n') > 1; }

// A migrating row whose run never migrates would check reconfig vacuously.
void ExpectMigrations(const Csvs& run, bool migrates) {
  EXPECT_EQ(run.migrations > 0, migrates) << run.migrations << " migrations";
  EXPECT_EQ(run.migration_cost_seconds > 0.0, migrates) << run.migration_cost_seconds;
  EXPECT_EQ(run.events.find(",migrate,") != std::string::npos, migrates) << "migrate events";
}

TEST_P(GoldenOutputsTest, BothWaysWriteTheSameCsvs) {
  const Row& row = GetParam();
  const auto [a, b] = row.run();
  EXPECT_EQ(a.jobs, b.jobs) << "jobs CSV";
  EXPECT_EQ(a.timeline, b.timeline) << "timeline CSV";
  EXPECT_EQ(a.events, b.events) << "events CSV";
  // An empty run would pass trivially.
  EXPECT_TRUE(HasRows(a.jobs)) << "no job rows";
  EXPECT_TRUE(HasRows(a.timeline)) << "no timeline rows";
  EXPECT_TRUE(HasRows(a.events)) << "no event rows";
  EXPECT_EQ(a.parallel_sections, 0) << "threadpool.parallel_sections";
  EXPECT_EQ(b.parallel_sections, 0) << "threadpool.parallel_sections";

  EXPECT_EQ(a.migrations, b.migrations);
  ExpectMigrations(a, row.migrates);
  for (const std::string& kind : row.events) {
    EXPECT_NE(a.events.find("," + kind + ","), std::string::npos) << "no " << kind << " event";
  }
  if (row.contrast) {
    const Csvs off = row.contrast();
    ExpectMigrations(off, false);
    EXPECT_NE(a.events, off.events) << "the feature changed nothing";
  }

  const Hashes actual{HashString(a.jobs), HashString(a.events), HashString(a.timeline)};
  std::printf("actual %s: Hashes{0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull}\n",
              row.name, actual.jobs, actual.events, actual.timeline);
  if (row.golden.has_value()) {
    EXPECT_EQ(actual.jobs, row.golden->jobs) << "jobs CSV";
    EXPECT_EQ(actual.events, row.golden->events) << "events CSV";
    EXPECT_EQ(actual.timeline, row.golden->timeline) << "timeline CSV";
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenOutputsTest, ::testing::ValuesIn(Rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace crius
