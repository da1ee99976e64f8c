// Golden output test for the simulation engine (src/sim/engine).
//
// Runs one faulty simulated-cluster scenario (node and GPU failures,
// straggler windows, periodic checkpoints) under every scheduler name, plus
// two extra configurations: fcfs with live reconfiguration and power
// accounting, and Crius-NH with owner cancels that hit every cancel path
// (before submit, inside the profiling window, queued, running, unknown id,
// already finished). Each run's jobs, events and timeline CSVs are compared
// by FNV-1a hash against goldens recorded from the engine that scanned every
// job on every step, before the live-set index.
// Any change to when a job becomes visible, which job a failure kills, the
// order of releases, or a throughput sample moves a hash. Every run has the
// global pool at 4 threads and must start no parallel section on it: a
// simulation is single-threaded, so goldens recorded with a 1-thread pool
// hold unchanged.
//
// To regenerate after an intended behavior change, run the test and copy the
// "actual" hashes it prints into kCases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/failure_injector.h"
#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace crius {
namespace {

enum class Extra {
  kNone,
  kReconfigPower,  // SimConfig::reconfig and SimConfig::power enabled
  kCancels,        // one owner cancel down every ApplyCancel path
};

struct Case {
  const char* label;
  const char* scheduler;
  Extra extra;
  bool preempts;  // the scheduler must preempt at least once in the scenario
  uint64_t jobs_hash;      // golden FNV-1a of the jobs CSV
  uint64_t events_hash;    // golden FNV-1a of the events CSV
  uint64_t timeline_hash;  // golden FNV-1a of the timeline CSV
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.label; }

// Recorded from the scan-every-job engine.
constexpr Case kCases[] = {
    {"crius", "crius", Extra::kNone, false,
     0x139c32298ac4e032ull, 0x1dd5eb8d2e945c8dull, 0x51dc32aac45c5109ull},
    {"crius_na", "crius-na", Extra::kNone, false,
     0x4bded8a3924f5581ull, 0x0f5cf8b1105b0272ull, 0x6fa6103a7fbd0922ull},
    {"crius_nh", "crius-nh", Extra::kNone, true,
     0x00d2a662f4452af3ull, 0xf1fdea1e289377c8ull, 0x9644dcfac93a6e6aull},
    {"crius_fair", "crius-fair", Extra::kNone, false,
     0x7aaa53477138dd41ull, 0x1aeff9b8d9619051ull, 0x2e99cf4e787a626bull},
    {"crius_solver", "crius-solver", Extra::kNone, false,
     0xa760ae4d37b12c01ull, 0xf800d6fe00cb82cfull, 0x175e1efa72e02350ull},
    {"fcfs", "fcfs", Extra::kNone, false,
     0x9b70b9641d71ed0eull, 0xfb09a76fa1f8ec56ull, 0x4c341c33783b560eull},
    {"gandiva", "gandiva", Extra::kNone, false,
     0x02ebfdc29fb1a045ull, 0x7cdd1aa13ca41d04ull, 0x52387a471d6c28f5ull},
    {"gavel", "gavel", Extra::kNone, false,
     0x6a7a48764d4744ccull, 0x6be263afebcd201eull, 0x3dbd5007a7ad172cull},
    {"tiresias", "tiresias", Extra::kNone, true,
     0x5c241a9e81500d23ull, 0xb8bc7ff3bda3a7e5ull, 0xeb3e5c3cf64c6885ull},
    {"elasticflow", "elasticflow", Extra::kNone, true,
     0x7ae1dfb6d46ee923ull, 0xf015c87cea1d0e4cull, 0xc0ca152c9b848d63ull},
    {"elasticflow_strict", "elasticflow-strict", Extra::kNone, true,
     0xe4cbf0561aed7a0bull, 0x8290603b8747de06ull, 0xe05c7a607e70d79eull},
    {"fcfs_reconfig_power", "fcfs", Extra::kReconfigPower, false,
     0xc2a659c715090ff4ull, 0x33b80fb5cdaaa6f9ull, 0xcf2147b8a698e8b4ull},
    {"crius_nh_cancels", "crius-nh", Extra::kCancels, true,
     0x4cedc8ed413c6f23ull, 0x16f1a71341a214fcull, 0x828bdd2a7064d375ull},
};

// The scenario: 240 Philly-heavy jobs arriving over 12 hours on the 1,280-GPU
// simulated cluster at offered load 2.0, so jobs queue and preemptive
// schedulers preempt, with node failures, single-GPU failures and straggler
// windows over the whole horizon and 30-minute checkpoints bounding the lost
// work. Small enough for the sanitizer builds.
struct Scenario {
  Cluster cluster;
  std::unique_ptr<PerformanceOracle> oracle;
  std::vector<TrainingJob> trace;
  SimConfig config;
};

Scenario MakeScenario(Extra extra) {
  Scenario s;
  s.cluster = MakeNamedCluster("simulated");
  s.oracle = std::make_unique<PerformanceOracle>(s.cluster, 42);
  TraceConfig trace_config = PhillyWeekHeavyConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = 240;
  trace_config.duration = 12.0 * kHour;
  trace_config.load = 2.0;
  s.trace = GenerateTrace(s.cluster, *s.oracle, trace_config);

  s.config.record_events = true;
  s.config.checkpoint.interval = 1800.0;
  s.config.node_mtbf = 100.0 * kHour;
  FailureInjectorConfig faults;
  faults.node_mtbf_hours = 100.0;
  faults.gpu_mtbf_hours = 2000.0;
  faults.straggler_rate = 0.02;
  faults.seed = 42;
  double trace_end = 0.0;
  for (const TrainingJob& job : s.trace) {
    trace_end = std::max(trace_end, job.submit_time);
  }
  faults.horizon = std::max(trace_end, 1.0) * s.config.max_time_factor + 24.0 * kHour;
  s.config.failures = GenerateFailureSchedule(s.cluster, faults);
  if (extra == Extra::kReconfigPower) {
    s.config.reconfig.enabled = true;
    s.config.power.enabled = true;
  }
  return s;
}

// Picks one cancel per ApplyCancel path from a cancel-free reference run of
// the scenario. Every cancel lands after the earliest finish, so the schedule
// up to the "finished" cancel is the reference's; the cancels shift the
// schedule after them, so the test re-derives each cancel's path from the
// cancelled run itself (ClassifyCancel).
std::vector<JobCancelEvent> PickCancels(const char* scheduler_name) {
  Scenario s = MakeScenario(Extra::kNone);
  auto scheduler = MakeNamedScheduler(scheduler_name, s.oracle.get());
  Simulator sim(s.cluster, s.config);
  const SimResult ref = sim.Run(*scheduler, *s.oracle, s.trace);
  std::map<int64_t, const JobRecord*> records;
  double first_finish = std::numeric_limits<double>::infinity();
  for (const JobRecord& r : ref.jobs) {
    records[r.id] = &r;
    if (r.finished) {
      first_finish = std::min(first_finish, r.finish);
    }
  }
  const double t0 = first_finish + 60.0;

  std::vector<JobCancelEvent> cancels;
  std::set<int64_t> used;
  // Cancels the first unused trace job for which `time_of` returns a time
  // at or after t0 (or NaN to skip the job).
  auto pick = [&](auto time_of) {
    for (const TrainingJob& job : s.trace) {
      const double t = time_of(job, *records.at(job.id),
                               scheduler->ProfilingDelay(job, s.cluster));
      if (used.count(job.id) == 0 && t >= t0) {
        used.insert(job.id);
        cancels.push_back(JobCancelEvent{t, job.id});
        return;
      }
    }
    ADD_FAILURE() << "no job fits a cancel path";
  };
  constexpr double kSkip = std::numeric_limits<double>::quiet_NaN();
  // Already finished (the job that finished first).
  pick([&](const TrainingJob&, const JobRecord& r, double) {
    return r.finished && r.finish == first_finish ? t0 : kSkip;
  });
  // Before submit.
  pick([](const TrainingJob& job, const JobRecord&, double) { return job.submit_time - 300.0; });
  // Inside the profiling window.
  pick([](const TrainingJob& job, const JobRecord&, double delay) {
    return delay > 60.0 ? job.submit_time + 0.5 * delay : kSkip;
  });
  // Queued: visible through at least one round boundary, not yet started.
  pick([](const TrainingJob& job, const JobRecord& r, double delay) {
    const double visible = job.submit_time + delay;
    return r.first_start > visible + 900.0 ? visible + 600.0 : kSkip;
  });
  // Running: mid-way through a long first segment.
  pick([](const TrainingJob&, const JobRecord& r, double) {
    return r.finished && r.restarts == 0 && r.finish - r.first_start > 4.0 * kHour
               ? 0.5 * (r.first_start + r.finish)
               : kSkip;
  });
  // Unknown id.
  int64_t max_id = 0;
  for (const TrainingJob& job : s.trace) {
    max_id = std::max(max_id, job.id);
  }
  cancels.push_back(JobCancelEvent{t0 + 3600.0, max_id + 1000});
  return cancels;
}

// Which ApplyCancel path `c` took in the run of `scheduler` that produced
// `result`.
std::string ClassifyCancel(const JobCancelEvent& c, const SimResult& result, Scenario& s,
                           Scheduler& scheduler) {
  const auto job = std::find_if(s.trace.begin(), s.trace.end(),
                                [&](const TrainingJob& j) { return j.id == c.job_id; });
  if (job == s.trace.end()) {
    return "unknown";
  }
  if (c.time < job->submit_time) {
    return "before_submit";
  }
  if (c.time < job->submit_time + scheduler.ProfilingDelay(*job, s.cluster)) {
    return "profiling";
  }
  bool running = false;
  for (const SimEvent& e : result.events) {
    if (e.time > c.time || SimEvent::IsClusterKind(e.kind) || e.job_id != c.job_id) {
      continue;
    }
    switch (e.kind) {
      case SimEvent::Kind::kFinish:
        return "finished";
      case SimEvent::Kind::kStart:
      case SimEvent::Kind::kRestart:
      case SimEvent::Kind::kMigrate:
        running = true;
        break;
      case SimEvent::Kind::kPreempt:
      case SimEvent::Kind::kFailureKill:
        running = false;
        break;
      default:
        break;
    }
  }
  return running ? "running" : "queued";
}

struct RunResult {
  uint64_t jobs_hash = 0;
  uint64_t events_hash = 0;
  uint64_t timeline_hash = 0;
  int failure_kills = 0;
  int preempts = 0;
  int cancels = 0;
  std::set<std::string> cancel_paths;
  int64_t parallel_sections = 0;  // threadpool.parallel_sections during the run
};

RunResult RunCase(const Case& c, const std::vector<JobCancelEvent>& cancels) {
  ThreadPool::SetGlobalThreads(4);
  Scenario s = MakeScenario(c.extra);
  s.config.cancels = cancels;
  auto scheduler = MakeNamedScheduler(c.scheduler, s.oracle.get());
  Simulator sim(s.cluster, s.config);
  CounterRegistry& counters = CounterRegistry::Global();
  const int64_t sections0 = counters.CounterValue("threadpool.parallel_sections");
  const SimResult result = sim.Run(*scheduler, *s.oracle, s.trace);

  RunResult run;
  run.parallel_sections = counters.CounterValue("threadpool.parallel_sections") - sections0;
  std::ostringstream jobs, events, timeline;
  WriteJobRecordsCsv(result, jobs);
  WriteEventsCsv(result, events);
  WriteTimelineCsv(result, timeline);
  run.jobs_hash = HashString(jobs.str());
  run.events_hash = HashString(events.str());
  run.timeline_hash = HashString(timeline.str());
  for (const SimEvent& e : result.events) {
    run.failure_kills += e.kind == SimEvent::Kind::kFailureKill ? 1 : 0;
    run.preempts += e.kind == SimEvent::Kind::kPreempt ? 1 : 0;
    run.cancels += e.kind == SimEvent::Kind::kCancel ? 1 : 0;
  }
  for (const JobCancelEvent& cancel : cancels) {
    run.cancel_paths.insert(ClassifyCancel(cancel, result, s, *scheduler));
  }
  return run;
}

class EngineGoldenTest : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

TEST_P(EngineGoldenTest, CsvsMatchGoldens) {
  const Case& c = GetParam();
  const std::vector<JobCancelEvent> cancels =
      c.extra == Extra::kCancels ? PickCancels(c.scheduler) : std::vector<JobCancelEvent>{};
  const RunResult run = RunCase(c, cancels);
  std::printf("actual: {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull}  // %d failure kills, %d preempts, %d cancels\n",
              c.label, run.jobs_hash, run.events_hash, run.timeline_hash, run.failure_kills,
              run.preempts, run.cancels);
  EXPECT_EQ(run.jobs_hash, c.jobs_hash) << "jobs CSV";
  EXPECT_EQ(run.events_hash, c.events_hash) << "events CSV";
  EXPECT_EQ(run.timeline_hash, c.timeline_hash) << "timeline CSV";
  EXPECT_EQ(run.parallel_sections, 0) << "threadpool.parallel_sections";

  // The goldens only pin the engine if the scenario exercises it.
  EXPECT_GT(run.failure_kills, 0);
  if (c.preempts) {
    EXPECT_GT(run.preempts, 0);
  }
  if (c.extra == Extra::kCancels) {
    // Unknown and finished jobs are ignored; the other four are withdrawn.
    EXPECT_EQ(run.cancels, 4);
    EXPECT_EQ(run.cancel_paths, (std::set<std::string>{"before_submit", "profiling", "queued",
                                                       "running", "unknown", "finished"}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, EngineGoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace crius
