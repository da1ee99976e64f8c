// Determinism test: two complete simulation runs from fresh state must
// produce BIT-IDENTICAL event, timeline and job-record CSVs. The global pool
// has 4 threads and a run must not fan out on it: a simulation is
// single-threaded.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/fault/failure_injector.h"
#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/counters.h"
#include "src/util/threadpool.h"

namespace crius {
namespace {

struct RunCsvs {
  std::string events;
  std::string timeline;
  std::string jobs;
};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalThreads(4); }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }

  // One complete simulation from fresh oracle/scheduler/sim state, serialized
  // to CSV. Includes a mid-trace node failure + recovery so the degraded-mode
  // path (epoch invalidation, re-ranking) is covered too.
  static RunCsvs Run() {
    Cluster cluster = MakePhysicalTestbed();
    PerformanceOracle oracle(cluster, 42);

    TraceConfig trace_config = PhillySixHourConfig();
    trace_config.seed = 42;
    trace_config.num_jobs = 24;
    const auto trace = GenerateTrace(cluster, oracle, trace_config);

    SimConfig sim_config;
    sim_config.record_events = true;
    sim_config.failures.push_back(FailureEvent{2.0 * kHour, FailureKind::kNodeFail, 0, 0, 1.0});
    sim_config.failures.push_back(
        FailureEvent{4.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0});

    Simulator sim(cluster, sim_config);
    CriusScheduler sched(&oracle, CriusConfig{});
    const SimResult result = sim.Run(sched, oracle, trace);

    RunCsvs csvs;
    std::ostringstream events, timeline, jobs;
    WriteEventsCsv(result, events);
    WriteTimelineCsv(result, timeline);
    WriteJobRecordsCsv(result, jobs);
    csvs.events = events.str();
    csvs.timeline = timeline.str();
    csvs.jobs = jobs.str();
    return csvs;
  }
};

TEST_F(ParallelDeterminismTest, RepeatedRunsAtSameThreadCountAreIdentical) {
  // Guards against run-to-run nondeterminism (e.g. address-dependent
  // ordering) and against a run that starts using the pool.
  const int64_t sections0 =
      CounterRegistry::Global().CounterValue("threadpool.parallel_sections");
  const RunCsvs a = Run();
  const RunCsvs b = Run();
  EXPECT_EQ(CounterRegistry::Global().CounterValue("threadpool.parallel_sections"), sections0);
  ASSERT_FALSE(a.events.empty());
  ASSERT_FALSE(a.timeline.empty());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.jobs, b.jobs);
}

}  // namespace
}  // namespace crius
