// Extension: Crius scheduling work at scale.
//
// Sweeps the heavy Philly-week trace at 1,300, 2,600, 5,200 and 10,400 jobs
// on the 1,280-GPU simulated cluster and on one twice its size (every node
// group doubled), and reports, per run:
//   * per-round Schedule() wall time against the round's visible jobs (the
//     jobs handed to the scheduler), overall and bucketed by visible jobs;
//   * the scaling search's exact, deterministic work counts:
//     sched.searches{outcome}, sched.search_moves_evaluated,
//     sched.search_memo_hits and sched.class_index_inserts.
//
// Wall times depend on the machine and are reported only. The work counts are
// what CI gates: a change that makes the search do more work at any scale
// fails the gate, however noisy the runner.
//
// Modes:
//   default   the full sweep (4 job counts x 2 cluster sizes).
//   --smoke   the 1,300- and 2,600-job runs on both cluster sizes.
//   --json F  write a BENCH_scale.json perf-trajectory report to F (compared
//             against bench/baselines/ by crius_benchdiff in CI). Work counts
//             gate with threshold 0; wall times never gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/counters.h"
#include "src/util/stats.h"

namespace crius {
namespace {

struct RoundSample {
  double ms = 0.0;
  size_t visible = 0;  // jobs handed to the scheduler
};

// Records the wall time and visible-job count of every Schedule() call.
class RoundTimer final : public Scheduler {
 public:
  explicit RoundTimer(Scheduler* inner) : Scheduler(nullptr), inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    const auto start = std::chrono::steady_clock::now();
    ScheduleDecision decision = inner_->Schedule(round);
    const auto end = std::chrono::steady_clock::now();
    samples_.push_back(RoundSample{std::chrono::duration<double, std::milli>(end - start).count(),
                                   round.jobs().size()});
    return decision;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return inner_->ProfilingDelay(job, cluster);
  }

  const std::vector<RoundSample>& samples() const { return samples_; }

 private:
  Scheduler* inner_;
  std::vector<RoundSample> samples_;
};

// The simulated cluster with every node group `factor` times as large, in
// the same node order.
Cluster ScaledSimulatedCluster(int factor) {
  const Cluster base = MakeSimulatedCluster();
  Cluster scaled;
  const std::vector<NodeInfo>& nodes = base.nodes();
  for (size_t i = 0; i < nodes.size();) {
    size_t j = i;
    while (j < nodes.size() && nodes[j].type == nodes[i].type) {
      ++j;
    }
    scaled.AddNodes(nodes[i].type, static_cast<int>(j - i) * factor, nodes[i].total_gpus);
    i = j;
  }
  return scaled;
}

// The scaling search's work counters, read from the global registry.
struct SearchWork {
  int64_t placed = 0;
  int64_t failed = 0;
  int64_t moves_evaluated = 0;
  int64_t memo_hits = 0;
  int64_t class_index_inserts = 0;

  static SearchWork Now() {
    const CounterRegistry& registry = CounterRegistry::Global();
    SearchWork w;
    w.placed = registry.CounterValue(
        CanonicalMetricName("sched.searches", MetricLabels{{"outcome", "placed"}}));
    w.failed = registry.CounterValue(
        CanonicalMetricName("sched.searches", MetricLabels{{"outcome", "failed"}}));
    w.moves_evaluated = registry.CounterValue("sched.search_moves_evaluated");
    w.memo_hits = registry.CounterValue("sched.search_memo_hits");
    w.class_index_inserts = registry.CounterValue("sched.class_index_inserts");
    return w;
  }

  SearchWork operator-(const SearchWork& o) const {
    return SearchWork{placed - o.placed, failed - o.failed, moves_evaluated - o.moves_evaluated,
                      memo_hits - o.memo_hits, class_index_inserts - o.class_index_inserts};
  }
};

struct ScaleRun {
  std::string label;  // e.g. "1x.2600jobs"
  int factor = 1;
  size_t jobs = 0;
  double run_s = 0.0;
  std::vector<RoundSample> rounds;
  SearchWork work;
};

ScaleRun RunScale(int factor, int num_jobs) {
  const Cluster cluster = ScaledSimulatedCluster(factor);
  PerformanceOracle oracle(cluster, 42);
  TraceConfig trace_config = PhillyWeekHeavyConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = num_jobs;
  const std::vector<TrainingJob> trace = GenerateTrace(cluster, oracle, trace_config);

  CriusScheduler crius(&oracle, CriusConfig{});
  RoundTimer timed(&crius);
  Simulator sim(cluster, SimConfig{});
  const SearchWork before = SearchWork::Now();
  const auto start = std::chrono::steady_clock::now();
  sim.Run(timed, oracle, trace);
  ScaleRun run;
  run.run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  run.work = SearchWork::Now() - before;
  run.label = std::to_string(factor) + "x." + std::to_string(num_jobs) + "jobs";
  run.factor = factor;
  run.jobs = trace.size();
  run.rounds = timed.samples();
  return run;
}

// Visible-job buckets for the round-time breakdown: [lo, 2*lo), from 0-99.
std::string BucketLabel(size_t visible) {
  if (visible < 100) {
    return "0-99";
  }
  size_t lo = 100;
  while (visible >= 2 * lo) {
    lo *= 2;
  }
  return std::to_string(lo) + "-" + std::to_string(2 * lo - 1);
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  const bool smoke = BenchFlagPresent(argc, argv, "--smoke");
  const std::vector<int> job_counts =
      smoke ? std::vector<int>{1300, 2600} : std::vector<int>{1300, 2600, 5200, 10400};

  std::vector<ScaleRun> runs;
  for (const int factor : {1, 2}) {
    for (const int jobs : job_counts) {
      runs.push_back(RunScale(factor, jobs));
      std::printf("ran %s in %.2f s\n", runs.back().label.c_str(), runs.back().run_s);
    }
  }

  Table summary(std::string("Crius at scale, philly-week on the simulated cluster (") +
                (smoke ? "smoke" : "full sweep") + ")");
  summary.SetHeader({"run", "rounds", "mean visible", "max visible", "mean round (ms)",
                     "p99 round (ms)", "us / visible job", "run (s)", "searches placed",
                     "searches failed", "moves evaluated", "memo hits", "class inserts"});
  for (const ScaleRun& run : runs) {
    std::vector<double> ms;
    double visible_sum = 0.0;
    size_t visible_max = 0;
    for (const RoundSample& r : run.rounds) {
      ms.push_back(r.ms);
      visible_sum += static_cast<double>(r.visible);
      visible_max = std::max(visible_max, r.visible);
    }
    const double total_ms = ms.empty() ? 0.0 : Mean(ms) * static_cast<double>(ms.size());
    summary.AddRow(
        {run.label, Table::FmtInt(static_cast<int64_t>(run.rounds.size())),
         Table::Fmt(ms.empty() ? 0.0 : visible_sum / static_cast<double>(ms.size()), 1),
         Table::FmtInt(static_cast<int64_t>(visible_max)), Table::Fmt(ms.empty() ? 0.0 : Mean(ms), 3),
         Table::Fmt(ms.empty() ? 0.0 : Percentile(ms, 99.0), 3),
         Table::Fmt(visible_sum > 0.0 ? 1e3 * total_ms / visible_sum : 0.0, 3),
         Table::Fmt(run.run_s, 2), Table::FmtInt(run.work.placed), Table::FmtInt(run.work.failed),
         Table::FmtInt(run.work.moves_evaluated), Table::FmtInt(run.work.memo_hits),
         Table::FmtInt(run.work.class_index_inserts)});
  }
  summary.Print();

  // Round time against visible jobs: each run's rounds bucketed by how many
  // jobs the scheduler saw.
  Table buckets("Schedule() time by visible jobs");
  buckets.SetHeader({"run", "visible jobs", "rounds", "median (ms)", "mean (ms)", "p99 (ms)"});
  for (const ScaleRun& run : runs) {
    std::vector<std::pair<size_t, double>> sorted;
    for (const RoundSample& r : run.rounds) {
      sorted.emplace_back(r.visible, r.ms);
    }
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size();) {
      const std::string label = BucketLabel(sorted[i].first);
      std::vector<double> ms;
      for (; i < sorted.size() && BucketLabel(sorted[i].first) == label; ++i) {
        ms.push_back(sorted[i].second);
      }
      buckets.AddRow({run.label, label, Table::FmtInt(static_cast<int64_t>(ms.size())),
                      Table::Fmt(Median(ms), 3), Table::Fmt(Mean(ms), 3),
                      Table::Fmt(Percentile(ms, 99.0), 3)});
    }
  }
  buckets.Print();

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "ext_scale";
    report.meta["mode"] = smoke ? "smoke" : "full";
    report.meta["trace"] = "philly-week";
    report.meta["cluster"] = "simulated x1, x2";
    for (const ScaleRun& run : runs) {
      const std::string& p = run.label;
      // Exact work counts: any increase fails the gate.
      report.AddMetric(p + ".searches_placed", static_cast<double>(run.work.placed), "", "lower",
                       0.0);
      report.AddMetric(p + ".searches_failed", static_cast<double>(run.work.failed), "", "lower",
                       0.0);
      report.AddMetric(p + ".search_moves_evaluated",
                       static_cast<double>(run.work.moves_evaluated), "", "lower", 0.0);
      report.AddMetric(p + ".class_index_inserts",
                       static_cast<double>(run.work.class_index_inserts), "", "lower", 0.0);
      // Failed searches the memo decided: not work, so fewer of them fails.
      report.AddMetric(p + ".search_memo_hits", static_cast<double>(run.work.memo_hits), "",
                       "higher", 0.0);
      // Wall times, reported only.
      std::vector<double> ms;
      for (const RoundSample& r : run.rounds) {
        ms.push_back(r.ms);
      }
      report.AddMetric(p + ".mean_round_ms", ms.empty() ? 0.0 : Mean(ms), "ms", "none");
      report.AddMetric(p + ".run_s", run.run_s, "s", "none");
      report.AddMetric(p + ".rounds", static_cast<double>(run.rounds.size()), "", "none");
    }
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }
  return 0;
}
