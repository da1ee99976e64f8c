// Golden decision test for the Crius placement pass.
//
// Runs one saturated simulated-cluster scenario under every Crius variant and
// compares FNV-1a hashes of the jobs and events CSVs against goldens recorded
// from the linear-scan placement pass, before the Algorithm-1 scaling search
// was indexed. Any change to a placement, scaling move, preemption or upscale
// decision moves a hash. The scenario must run at least 500 searches with
// both outcomes, so the goldens cannot pass on an unsaturated trace.
//
// CriusWorkCountTest pins the deterministic work counts of the crius and
// crius-solver runs exactly, so an algorithmic regression fails here instead
// of hiding in wall-time noise.
//
// CriusMemoVsFreshTest runs the same scenario through a node failure, a
// straggler and a recovery twice, once with the scheduler's ranking memo and
// persistent class index and once with FreshCriusScheduler, which starts both
// from scratch every round; the decisions and the search work must match.
//
// Every run has the global pool at 4 threads and must start no parallel
// section on it: a simulation is single-threaded, so goldens and counts
// recorded with a 1-thread pool hold unchanged.
//
// To regenerate after an intended decision change, run the test and copy the
// "actual" hashes it prints into kVariants. A pinned work count changes only
// with the change that moves it, stating the old and new value and why.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/fresh_crius_scheduler.h"

namespace crius {
namespace {

struct Variant {
  const char* label;
  const char* scheduler;
  bool deadline_aware;            // also gives half the trace a deadline
  const char* objective_weights;  // empty = default
  int search_depth;               // CriusConfig::search_depth
  uint64_t jobs_hash;             // golden FNV-1a of the jobs CSV
  uint64_t events_hash;           // golden FNV-1a of the events CSV
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.label; }

// Recorded from the linear-scan scheduler.
constexpr Variant kVariants[] = {
    {"crius", "crius", false, "", 3, 0x0ae91316f77a6910ull, 0xc5fcb1760199de6dull},
    {"crius_na", "crius-na", false, "", 3, 0x44f436751ecba71dull, 0xab452c9e56489766ull},
    {"crius_nh", "crius-nh", false, "", 3, 0x23b682c79081da57ull, 0x139dd9d10870bd30ull},
    {"crius_fair", "crius-fair", false, "", 3, 0xcf0c0ed9e33530a0ull, 0x1b451fa68de7fd04ull},
    {"crius_solver", "crius-solver", false, "", 3, 0xd6bf2030748b14caull, 0x8d8fdf0df209fad7ull},
    {"crius_ddl", "crius", true, "", 3, 0x02bb75d984954753ull, 0x624f78dea04d02e4ull},
    {"crius_weights", "crius", false, "1,0.2,0.5,0.3", 3, 0x70732c8ec56cc15dull,
     0xe09d92360130994eull},
    // Recorded from the class-indexed search before failed searches were
    // memoized, whose replay length is the search depth.
    {"crius_depth1", "crius", false, "", 1, 0xbe37f6d76738e181ull, 0xad4f36e7646dcb69ull},
    {"crius_depth5", "crius", false, "", 5, 0x644c6e0c593e35c8ull, 0xddd1c0b264dc49bfull},
};

struct RunResult {
  uint64_t jobs_hash = 0;
  uint64_t events_hash = 0;
  int64_t searches_placed = 0;
  int64_t searches_failed = 0;
  int64_t moves_evaluated = 0;
  int64_t search_memo_hits = 0;
  int64_t class_index_inserts = 0;
  int64_t memo_lookups = 0;
  int64_t rankings_computed = 0;
  int64_t cells_considered = 0;
  int64_t sched_invocations = 0;
  int64_t assignments = 0;
  int64_t batch_hits = 0;
  int64_t batch_misses = 0;
  int64_t parallel_sections = 0;  // threadpool.parallel_sections during the run
};

int64_t CounterNow(const std::string& name, const MetricLabels& labels = {}) {
  return CounterRegistry::Global().CounterValue(CanonicalMetricName(name, labels));
}

// Delegates to `inner` and sums the placed jobs of every decision's resolved
// target. (perfbench's sched.assignments counts the decisions' change
// entries instead.)
class AssignmentCounter final : public Scheduler {
 public:
  explicit AssignmentCounter(Scheduler& inner) : Scheduler(nullptr), inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    ScheduleDecision decision = inner_.Schedule(round);
    assignments += static_cast<int64_t>(ResolvedTarget(round, decision).size());
    return decision;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return inner_.ProfilingDelay(job, cluster);
  }

  int64_t assignments = 0;

 private:
  Scheduler& inner_;
};

// The scenario: the 1,280-GPU simulated cluster under a compressed heavy
// Philly trace (600 jobs in two days at offered load 2.0), so queued jobs
// regularly find no free fit and the scaling search runs. The global pool
// gets 4 threads, which the run must leave unused. `fresh` runs the variant's
// configuration through FreshCriusScheduler.
RunResult RunVariant(const Variant& variant, bool fresh = false,
                     const std::vector<FailureEvent>& failures = {}) {
  ThreadPool::SetGlobalThreads(4);
  Cluster cluster = MakeNamedCluster("simulated");
  PerformanceOracle oracle(cluster, 42);
  TraceConfig trace_config = PhillyWeekHeavyConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = 600;
  trace_config.duration = 2.0 * kDay;
  trace_config.load = 2.0;
  if (variant.deadline_aware) {
    trace_config.deadline_fraction = 0.5;
  }
  const std::vector<TrainingJob> trace = GenerateTrace(cluster, oracle, trace_config);

  SchedulerOptions options;
  options.deadline_aware = variant.deadline_aware;
  options.search_depth = variant.search_depth;
  if (variant.objective_weights[0] != '\0') {
    const std::optional<CriusObjective> objective =
        CriusObjective::Parse(variant.objective_weights);
    EXPECT_TRUE(objective.has_value());
    options.objective = objective.value_or(CriusObjective{});
  }
  std::unique_ptr<Scheduler> scheduler = MakeNamedScheduler(variant.scheduler, &oracle, options);
  if (fresh) {
    const auto* crius = dynamic_cast<const CriusScheduler*>(scheduler.get());
    EXPECT_NE(crius, nullptr) << variant.scheduler;
    scheduler = std::make_unique<FreshCriusScheduler>(&oracle, crius->config());
  }
  AssignmentCounter counted(*scheduler);
  SimConfig sim_config;
  sim_config.record_events = true;
  sim_config.failures = failures;
  Simulator sim(cluster, sim_config);

  const int64_t placed0 = CounterNow("sched.searches", {{"outcome", "placed"}});
  const int64_t failed0 = CounterNow("sched.searches", {{"outcome", "failed"}});
  const int64_t moves0 = CounterNow("sched.search_moves_evaluated");
  const int64_t memo_hits0 = CounterNow("sched.search_memo_hits");
  const int64_t inserts0 = CounterNow("sched.class_index_inserts");
  const int64_t lookups0 = CounterNow("sched.memo_lookups");
  const int64_t rankings0 = CounterNow("sched.rankings_computed");
  const int64_t cells0 = CounterNow("sched.cells_considered");
  const int64_t invocations0 = CounterNow("sim.sched_invocations");
  const int64_t hits0 = CounterNow("oracle.batch_hits");
  const int64_t misses0 = CounterNow("oracle.batch_misses");
  const int64_t sections0 = CounterNow("threadpool.parallel_sections");
  const SimResult result = sim.Run(counted, oracle, trace);

  RunResult run;
  std::ostringstream jobs, events;
  WriteJobRecordsCsv(result, jobs);
  WriteEventsCsv(result, events);
  run.jobs_hash = HashString(jobs.str());
  run.events_hash = HashString(events.str());
  run.searches_placed = CounterNow("sched.searches", {{"outcome", "placed"}}) - placed0;
  run.searches_failed = CounterNow("sched.searches", {{"outcome", "failed"}}) - failed0;
  run.moves_evaluated = CounterNow("sched.search_moves_evaluated") - moves0;
  run.search_memo_hits = CounterNow("sched.search_memo_hits") - memo_hits0;
  run.class_index_inserts = CounterNow("sched.class_index_inserts") - inserts0;
  run.memo_lookups = CounterNow("sched.memo_lookups") - lookups0;
  run.rankings_computed = CounterNow("sched.rankings_computed") - rankings0;
  run.cells_considered = CounterNow("sched.cells_considered") - cells0;
  run.sched_invocations = CounterNow("sim.sched_invocations") - invocations0;
  run.assignments = counted.assignments;
  run.batch_hits = CounterNow("oracle.batch_hits") - hits0;
  run.batch_misses = CounterNow("oracle.batch_misses") - misses0;
  run.parallel_sections = CounterNow("threadpool.parallel_sections") - sections0;
  return run;
}

class CriusPlacementGoldenTest : public ::testing::TestWithParam<Variant> {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

TEST_P(CriusPlacementGoldenTest, DecisionsMatchGoldens) {
  const Variant& variant = GetParam();
  const RunResult run = RunVariant(variant);
  std::printf("actual: {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull}  // searches %" PRId64 " placed / %" PRId64 " failed, %" PRId64 " moves\n",
              variant.label, run.jobs_hash, run.events_hash, run.searches_placed,
              run.searches_failed, run.moves_evaluated);
  EXPECT_EQ(run.jobs_hash, variant.jobs_hash) << "jobs CSV";
  EXPECT_EQ(run.events_hash, variant.events_hash) << "events CSV";
  EXPECT_EQ(run.parallel_sections, 0) << "threadpool.parallel_sections";

  // The goldens only mean something if the search actually ran, both ways.
  EXPECT_GE(run.searches_placed + run.searches_failed, 500);
  EXPECT_GT(run.searches_placed, 0);
  EXPECT_GT(run.searches_failed, 0);
  EXPECT_GT(run.moves_evaluated, 0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CriusPlacementGoldenTest, ::testing::ValuesIn(kVariants),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return std::string(info.param.label);
                         });

struct WorkCounts {
  const char* label;  // a kVariants entry
  int64_t moves_evaluated;
  int64_t searches_placed;
  int64_t searches_failed;
  int64_t cells_considered;
  int64_t sched_invocations;
  int64_t assignments;
  int64_t batch_hits;
  int64_t batch_misses;
  int64_t class_index_inserts;
  int64_t memo_lookups;
  int64_t rankings_computed;
  int64_t search_memo_hits;
};

void PrintTo(const WorkCounts& w, std::ostream* os) { *os << w.label; }

// Recorded with a 1-thread pool from the class-indexed scaling search.
// class_index_inserts was recorded with the persistent class index, which
// re-inserts only the victims that changed since the previous search.
// memo_lookups was recorded with the merge-walk memo sync, which hashes a job
// id only where the round's order and last round's snapshot disagree, to
// insert an arrival, or to evict a departure (about four per job).
// rankings_computed, cells_considered and batch_hits were recorded with the
// ranking store, which ranks each job shape once for both admission's
// profiling delay and the memo warm-up; cells_considered counts per computed
// ranking. moves_evaluated, class_index_inserts and search_memo_hits were
// recorded with the failed-chain memo, which decides a search that must fail
// like an earlier one of its pass without running or applying its moves.
constexpr WorkCounts kWorkCounts[] = {
    {"crius", 29488, 458, 406, 11376, 3184, 215336, 8564, 2812, 2409, 2391, 304, 110},
    {"crius_solver", 124950, 957, 3660, 11376, 3184, 208435, 8564, 2812, 7330, 2392, 304, 1805},
};

class CriusWorkCountTest : public ::testing::TestWithParam<WorkCounts> {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

TEST_P(CriusWorkCountTest, WorkCountsMatchExactly) {
  const WorkCounts& want = GetParam();
  const Variant* variant = nullptr;
  for (const Variant& v : kVariants) {
    if (std::string(v.label) == want.label) {
      variant = &v;
    }
  }
  ASSERT_NE(variant, nullptr) << want.label;
  const RunResult run = RunVariant(*variant);
  std::printf("actual: {\"%s\", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
              ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
              ", %" PRId64 "}\n",
              want.label, run.moves_evaluated, run.searches_placed, run.searches_failed,
              run.cells_considered, run.sched_invocations, run.assignments, run.batch_hits,
              run.batch_misses, run.class_index_inserts, run.memo_lookups, run.rankings_computed,
              run.search_memo_hits);
  EXPECT_EQ(run.moves_evaluated, want.moves_evaluated) << "sched.search_moves_evaluated";
  EXPECT_EQ(run.searches_placed, want.searches_placed) << "sched.searches{outcome=placed}";
  EXPECT_EQ(run.searches_failed, want.searches_failed) << "sched.searches{outcome=failed}";
  EXPECT_EQ(run.cells_considered, want.cells_considered) << "sched.cells_considered";
  EXPECT_EQ(run.sched_invocations, want.sched_invocations) << "sim.sched_invocations";
  EXPECT_EQ(run.assignments, want.assignments) << "placed jobs";
  EXPECT_EQ(run.batch_hits, want.batch_hits) << "oracle.batch_hits";
  EXPECT_EQ(run.batch_misses, want.batch_misses) << "oracle.batch_misses";
  EXPECT_EQ(run.class_index_inserts, want.class_index_inserts) << "sched.class_index_inserts";
  EXPECT_EQ(run.memo_lookups, want.memo_lookups) << "sched.memo_lookups";
  EXPECT_EQ(run.rankings_computed, want.rankings_computed) << "sched.rankings_computed";
  EXPECT_EQ(run.search_memo_hits, want.search_memo_hits) << "sched.search_memo_hits";
  EXPECT_EQ(run.parallel_sections, 0) << "threadpool.parallel_sections";
}

INSTANTIATE_TEST_SUITE_P(CriusAndSolver, CriusWorkCountTest, ::testing::ValuesIn(kWorkCounts),
                         [](const ::testing::TestParamInfo<WorkCounts>& info) {
                           return std::string(info.param.label);
                         });

struct MemoVsFresh {
  const char* label;     // a kVariants entry
  uint64_t jobs_hash;    // golden FNV-1a of the jobs CSV
  uint64_t events_hash;  // golden FNV-1a of the events CSV
};

void PrintTo(const MemoVsFresh& m, std::ostream* os) { *os << m.label; }

// crius (one pass per round), crius_solver (three passes per round, each
// syncing the class index from the state the previous pass left) and
// crius_ddl (deadline victims re-inserted at every sync). Recorded from the
// scheduler that rebuilt the class index at every searching pass.
constexpr MemoVsFresh kMemoVsFresh[] = {
    {"crius", 0x01ca129cd5d7b9f7ull, 0x7ec8f894223587adull},
    {"crius_solver", 0x0bbe54c1d8105040ull, 0xda940dd9445a2ee1ull},
    {"crius_ddl", 0xd6126a36cbfb74bfull, 0xabb6fa6cc6de7e27ull},
};

class CriusMemoVsFreshTest : public ::testing::TestWithParam<MemoVsFresh> {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

TEST_P(CriusMemoVsFreshTest, MemoMatchesFreshThroughFailures) {
  const MemoVsFresh& want = GetParam();
  const Variant* variant = nullptr;
  for (const Variant& v : kVariants) {
    if (std::string(v.label) == want.label) {
      variant = &v;
    }
  }
  ASSERT_NE(variant, nullptr) << want.label;
  const RunResult memo = RunVariant(*variant, /*fresh=*/false, FailStraggleRecover());
  const RunResult fresh = RunVariant(*variant, /*fresh=*/true, FailStraggleRecover());
  std::printf("actual: {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
              "ull}  // searches %" PRId64 " placed / %" PRId64 " failed, %" PRId64 " moves\n",
              want.label, memo.jobs_hash, memo.events_hash, memo.searches_placed,
              memo.searches_failed, memo.moves_evaluated);
  EXPECT_EQ(memo.jobs_hash, fresh.jobs_hash) << "jobs CSV";
  EXPECT_EQ(memo.events_hash, fresh.events_hash) << "events CSV";
  EXPECT_EQ(memo.jobs_hash, want.jobs_hash) << "jobs CSV";
  EXPECT_EQ(memo.events_hash, want.events_hash) << "events CSV";
  // The same searches, each evaluating the same classes.
  EXPECT_EQ(memo.searches_placed, fresh.searches_placed);
  EXPECT_EQ(memo.searches_failed, fresh.searches_failed);
  EXPECT_EQ(memo.moves_evaluated, fresh.moves_evaluated);
  EXPECT_EQ(memo.search_memo_hits, fresh.search_memo_hits);
  EXPECT_EQ(memo.parallel_sections, 0) << "threadpool.parallel_sections";
  EXPECT_EQ(fresh.parallel_sections, 0) << "threadpool.parallel_sections";

  EXPECT_GE(memo.searches_placed + memo.searches_failed, 500);
  EXPECT_GT(memo.searches_placed, 0);
  EXPECT_GT(memo.searches_failed, 0);
}

INSTANTIATE_TEST_SUITE_P(SaturatedWithFailures, CriusMemoVsFreshTest,
                         ::testing::ValuesIn(kMemoVsFresh),
                         [](const ::testing::TestParamInfo<MemoVsFresh>& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace crius
