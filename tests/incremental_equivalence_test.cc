// Acceptance test for event-driven incremental scheduling: a full simulation
// run with CriusScheduler's cross-round ranking memo must produce
// BIT-IDENTICAL event, timeline, and job-record CSVs to a run that re-ranks
// every job from scratch each round (FreshCriusScheduler). The trace includes
// a mid-run node failure, recovery, and a straggler window so the dirty-set
// path (per-type cap diff, keep-vs-rerank, slowdown-only epochs) is
// exercised, not just the steady-state hit path. The global pool has 4
// threads; a run stays single-threaded, so it cannot change the result. The
// harness mirrors tests/parallel_determinism_test.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/fault/failure_injector.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/threadpool.h"
#include "tests/fresh_crius_scheduler.h"

namespace crius {
namespace {

struct RunCsvs {
  std::string events;
  std::string timeline;
  std::string jobs;
};

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalThreads(4); }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }

  // One complete simulation from fresh oracle/scheduler/sim state, serialized
  // to CSV. The fault schedule drives every incremental-path branch: node 0
  // fails at 2h (caps shrink -> dirty re-ranks), recovers at 4h (caps grow),
  // and node 1 straggles for a window (epoch moves with no cap change ->
  // keep-only rounds). `Sched` is CriusScheduler or the FreshCriusScheduler
  // full-recompute reference.
  template <typename Sched>
  static RunCsvs Run(CriusConfig sched_config) {
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
        FailureEvent{2.5 * kHour, FailureKind::kStragglerStart, 1, 0, 1.8});
    sim_config.failures.push_back(
        FailureEvent{3.5 * kHour, FailureKind::kStragglerEnd, 1, 0, 1.0});
    sim_config.failures.push_back(
        FailureEvent{4.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0});

    Simulator sim(cluster, sim_config);
    Sched sched(&oracle, sched_config);
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

  static void ExpectIdentical(const RunCsvs& a, const RunCsvs& b, const char* label) {
    EXPECT_EQ(a.events, b.events) << "events diverge: " << label;
    EXPECT_EQ(a.timeline, b.timeline) << "timeline diverges: " << label;
    EXPECT_EQ(a.jobs, b.jobs) << "job records diverge: " << label;
  }
};

TEST_F(IncrementalEquivalenceTest, IncrementalMatchesFullRecomputeWithFaults) {
  const RunCsvs base = Run<FreshCriusScheduler>(CriusConfig{});
  ASSERT_FALSE(base.events.empty());
  ASSERT_FALSE(base.timeline.empty());
  // The fault schedule actually fired (failure/recovery rounds are covered).
  EXPECT_NE(base.events.find("node_fail"), std::string::npos);
  EXPECT_NE(base.events.find("node_recover"), std::string::npos);

  ExpectIdentical(Run<CriusScheduler>(CriusConfig{}), base, "memoized vs fresh");
}

TEST_F(IncrementalEquivalenceTest, SolverLiteIncrementalMatchesFull) {
  // kBestOfAll runs three placement passes that read the shared ranking
  // snapshot; the memo's maintenance must not change the winning pass.
  CriusConfig config;
  config.placement_order = CriusPlacementOrder::kBestOfAll;
  ExpectIdentical(Run<CriusScheduler>(config), Run<FreshCriusScheduler>(config),
                  "solver-lite memoized vs fresh");
}

}  // namespace
}  // namespace crius
