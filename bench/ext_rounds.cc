// Extension: per-round scheduler latency of the event-driven incremental core.
//
// The RoundContext redesign lets CriusScheduler keep its per-job cell ranking
// across rounds and re-estimate only the jobs the round's event delta actually
// dirtied. This sweep measures what that buys: it runs the same trace twice --
// once with CriusScheduler, once with FreshCriusScheduler, which re-ranks
// every job from scratch each round (the literal Algorithm 1) -- and reports
// per-round Schedule() wall latency. The headline number is the median over
// *steady-state* rounds (rounds whose event delta is empty), where the
// incremental path should serve the entire ranking from the memo.
//
// Each mode gets a fresh PerformanceOracle so neither run benefits from the
// other's warmed estimate caches; decisions are bit-identical either way
// (tests/incremental_equivalence_test enforces that), so both runs schedule
// the exact same rounds.
//
// Modes:
//   default   heavy week-long trace on the 1280-GPU simulated cluster -- the
//             measurement behind the ">= 2x steady-state median" claim.
//   --smoke   244-job testbed trace subset; exits non-zero if the incremental
//             path is *slower* than full recompute (CI regression gate).
//   --jobs N  override the trace's job count (0 = keep the preset's default).
//   --json F  write a BENCH_rounds.json perf-trajectory report to F
//             (compared against bench/baselines/ by crius_benchdiff in CI).

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/util/counters.h"
#include "src/util/stats.h"
#include "tests/fresh_crius_scheduler.h"

namespace crius {
namespace {

struct RoundSample {
  double seconds = 0.0;
  bool steady = false;   // the round's event delta was empty
  size_t jobs = 0;       // visible jobs handed to the scheduler
};

// Wraps CriusScheduler and records the wall latency of every Schedule() call
// together with whether the round was steady-state.
class RoundLatencyScheduler : public Scheduler {
 public:
  explicit RoundLatencyScheduler(Scheduler* inner) : Scheduler(nullptr), inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    const bool steady = round.events().empty();
    const auto start = std::chrono::steady_clock::now();
    ScheduleDecision d = inner_->Schedule(round);
    const auto end = std::chrono::steady_clock::now();
    samples_.push_back(RoundSample{std::chrono::duration<double>(end - start).count(), steady,
                                   round.jobs().size()});
    return d;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return inner_->ProfilingDelay(job, cluster);
  }

  const std::vector<RoundSample>& samples() const { return samples_; }

 private:
  Scheduler* inner_;
  std::vector<RoundSample> samples_;
};

struct ModeStats {
  size_t rounds = 0;
  size_t steady_rounds = 0;
  double median_all_ms = 0.0;
  double median_steady_ms = 0.0;
  double p95_steady_ms = 0.0;
  double mean_steady_ms = 0.0;
};

ModeStats Summarize(const std::vector<RoundSample>& samples) {
  ModeStats s;
  std::vector<double> all_ms, steady_ms;
  for (const RoundSample& sample : samples) {
    all_ms.push_back(sample.seconds * 1e3);
    if (sample.steady) {
      steady_ms.push_back(sample.seconds * 1e3);
    }
  }
  s.rounds = all_ms.size();
  s.steady_rounds = steady_ms.size();
  s.median_all_ms = Median(all_ms);
  if (!steady_ms.empty()) {
    s.median_steady_ms = Median(steady_ms);
    s.p95_steady_ms = Percentile(steady_ms, 95.0);
    s.mean_steady_ms = Mean(steady_ms);
  }
  return s;
}

// One full simulation with a fresh oracle and a `Sched` (CriusScheduler or
// the FreshCriusScheduler reference); returns the per-round latency samples.
template <typename Sched>
std::vector<RoundSample> RunMode(const Cluster& cluster, const std::vector<TrainingJob>& trace) {
  PerformanceOracle oracle(cluster, 42);
  Sched sched(&oracle, CriusConfig{});
  RoundLatencyScheduler timed(&sched);
  Simulator sim(cluster, SimConfig{});
  sim.Run(timed, oracle, trace);
  return timed.samples();
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  const bool smoke = BenchFlagPresent(argc, argv, "--smoke");
  const int jobs_override = static_cast<int>(BenchFlagInt(argc, argv, "--jobs", 0));

  Cluster cluster = smoke ? MakePhysicalTestbed() : MakeSimulatedCluster();
  TraceConfig trace_config = smoke ? PhillySixHourConfig() : PhillyWeekHeavyConfig();
  trace_config.seed = 42;
  if (smoke) {
    trace_config.num_jobs = 48;
  }
  if (jobs_override > 0) {
    trace_config.num_jobs = jobs_override;
  }
  PerformanceOracle trace_oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, trace_oracle, trace_config);
  std::printf("trace %s: %zu jobs on %s cluster (%s)\n", trace_config.name.c_str(), trace.size(),
              smoke ? "testbed" : "simulated", smoke ? "smoke" : "full sweep");

  // Cold-oracle batch-estimation throughput (DESIGN.md §14): hand every trace
  // job's whole candidate Cell list to EstimateCellBatch against a fresh
  // oracle and measure Cells ranked per wall second. First occurrence of a
  // (model, cell) point is a miss estimated on the calling thread; repeats
  // are served by the batch's lookup pass -- the same mix the scheduler's
  // warm-up sees.
  size_t batch_cells = 0;
  double batch_seconds = 0.0;
  {
    PerformanceOracle cold(cluster, 42);
    std::vector<Cell> cells;
    CellBatchResult batch;
    const auto start = std::chrono::steady_clock::now();
    for (const TrainingJob& job : trace) {
      GenerateCellsInto(job, cluster, &cells);
      batch_cells += cells.size();
      cold.EstimateCellBatch(CellBatchRequest{&job.spec, cells.data(), cells.size()}, &batch);
    }
    batch_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  const double cells_per_sec = batch_seconds > 0.0 ? batch_cells / batch_seconds : 0.0;
  std::printf("batch estimation: %zu cells in %.3f s (%.0f cells/s, cold oracle)\n", batch_cells,
              batch_seconds, cells_per_sec);

  // Incremental first: its oracle starts cold, so any cold-cache penalty lands
  // on the incremental side and the reported speedup is conservative.
  // estimator.arena_bytes counts every estimate's scratch-arena footprint;
  // the delta across the incremental run, amortized per round, is the
  // steady-state allocation pressure of the estimation path.
  const int64_t arena_before =
      CounterRegistry::Global().GetCounter("estimator.arena_bytes").value();
  const std::vector<RoundSample> inc_samples = RunMode<CriusScheduler>(cluster, trace);
  const int64_t arena_after =
      CounterRegistry::Global().GetCounter("estimator.arena_bytes").value();
  const std::vector<RoundSample> full_samples = RunMode<FreshCriusScheduler>(cluster, trace);
  const ModeStats inc = Summarize(inc_samples);
  const ModeStats full = Summarize(full_samples);
  const double round_alloc_bytes =
      inc.rounds > 0 ? static_cast<double>(arena_after - arena_before) / inc.rounds : 0.0;
  std::printf("estimator arena traffic: %.0f bytes/round over %zu incremental rounds\n",
              round_alloc_bytes, inc.rounds);

  Table table("Per-round Schedule() latency, incremental vs full recompute");
  table.SetHeader({"mode", "rounds", "steady", "med all (ms)", "med steady (ms)",
                   "p95 steady (ms)", "mean steady (ms)"});
  auto row = [&](const char* label, const ModeStats& s) {
    table.AddRow({label, Table::FmtInt(static_cast<int64_t>(s.rounds)),
                  Table::FmtInt(static_cast<int64_t>(s.steady_rounds)), Table::Fmt(s.median_all_ms, 3),
                  Table::Fmt(s.median_steady_ms, 3), Table::Fmt(s.p95_steady_ms, 3),
                  Table::Fmt(s.mean_steady_ms, 3)});
  };
  row("incremental", inc);
  row("full recompute", full);
  table.Print();

  if (inc.steady_rounds > 0 && full.steady_rounds > 0 && inc.median_steady_ms > 0.0) {
    std::printf("\nSteady-state median speedup: %.2fx (full %.3f ms -> incremental %.3f ms)\n",
                full.median_steady_ms / inc.median_steady_ms, full.median_steady_ms,
                inc.median_steady_ms);
  }
  if (inc.median_all_ms > 0.0) {
    std::printf("Overall median speedup: %.2fx (full %.3f ms -> incremental %.3f ms)\n",
                full.median_all_ms / inc.median_all_ms, full.median_all_ms, inc.median_all_ms);
  }

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "ext_rounds";
    report.meta["mode"] = smoke ? "smoke" : "full";
    report.meta["trace"] = trace_config.name;
    report.meta["jobs"] = std::to_string(trace.size());
    // Wall-time metrics carry loose thresholds (CI machines are noisy);
    // the speedup ratio is dimensionless and gates tighter.
    report.AddMetric("incremental.median_all_ms", inc.median_all_ms, "ms", "lower", 3.0);
    report.AddMetric("incremental.median_steady_ms", inc.median_steady_ms, "ms", "lower", 3.0);
    report.AddMetric("incremental.p95_steady_ms", inc.p95_steady_ms, "ms", "lower", 4.0);
    report.AddMetric("full.median_all_ms", full.median_all_ms, "ms", "lower", 3.0);
    report.AddMetric("full.median_steady_ms", full.median_steady_ms, "ms", "lower", 3.0);
    const double steady_speedup =
        inc.median_steady_ms > 0.0 ? full.median_steady_ms / inc.median_steady_ms : 0.0;
    report.AddMetric("steady_speedup", steady_speedup, "x", "higher", 0.75);
    report.AddMetric("rounds", static_cast<double>(inc.rounds), "", "none");
    report.AddMetric("steady_rounds", static_cast<double>(inc.steady_rounds), "", "none");
    // Batch-estimation pipeline throughput (higher is better; machine-speed
    // dependent, so the gate is loose) and per-round estimator allocation
    // traffic (arena bytes are deterministic, gated tight).
    report.AddMetric("estimator_cells_per_sec", cells_per_sec, "cells/s", "higher", 0.5);
    report.AddMetric("round_alloc_bytes", round_alloc_bytes, "B", "lower", 1.5);
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }

  if (smoke && inc.median_all_ms > full.median_all_ms) {
    std::fprintf(stderr,
                 "FAIL: incremental median %.3f ms is slower than full recompute %.3f ms\n",
                 inc.median_all_ms, full.median_all_ms);
    return 1;
  }
  return 0;
}
