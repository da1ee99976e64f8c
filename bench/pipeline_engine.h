// Event-driven pipeline execution engine.
//
// PerfModel::Evaluate computes iteration latency with the paper's closed-form
// §5.1 formula (first microbatch through all stages + (B-1) x slowest stage +
// exposed gradient sync). This engine *executes* the same plan at
// per-microbatch granularity under the true dependency structure:
//
//   start(s, m) = max(finish(s, m-1), finish(s-1, m) + boundary(s))
//
// and reports the realized timeline. It serves three purposes:
//   * validating the closed form (tests assert the two agree within a small
//     tolerance across the plan space -- the §5.1 approximation is the only
//     difference),
//   * per-stage busy/bubble accounting (the gantt rendering and utilization
//     numbers), and
//   * exporting Chrome-trace JSON (chrome://tracing / Perfetto) for real
//     timeline inspection, the way production training stacks are profiled.

#ifndef BENCH_PIPELINE_ENGINE_H_
#define BENCH_PIPELINE_ENGINE_H_

#include <iosfwd>
#include <vector>

#include "src/parallel/perf_model.h"

namespace crius {

// One stage x microbatch execution interval.
struct StageInterval {
  int stage = 0;
  int microbatch = 0;
  double start = 0.0;
  double finish = 0.0;
};

struct IterationTrace {
  // All intervals, ordered by (stage, microbatch).
  std::vector<StageInterval> intervals;
  // Per-microbatch stage latencies and inbound boundary-transfer times.
  std::vector<double> stage_time;
  std::vector<double> boundary_time;
  // Completion of the last microbatch at the last stage.
  double pipeline_makespan = 0.0;
  // Exposed gradient-synchronization time appended after the pipeline.
  double dp_sync = 0.0;
  // Full iteration latency (pipeline + exposed sync + fixed overhead).
  double total_time = 0.0;

  // Fraction of stage-time slots idle while the pipeline drains.
  double BubbleFraction() const;
  // Busy seconds of one stage.
  double StageBusySeconds(int stage) const;
  // The interval for (stage, microbatch). Aborts if out of range.
  const StageInterval& At(int stage, int microbatch) const;

  int num_stages() const { return static_cast<int>(stage_time.size()); }
  int num_microbatches() const {
    return stage_time.empty() ? 0 : static_cast<int>(intervals.size()) / num_stages();
  }
};

class PipelineEngine {
 public:
  explicit PipelineEngine(const PerfModel* model);

  // Executes one training iteration of `plan` and returns the realized
  // timeline. The plan must be structurally valid for ctx's graph.
  IterationTrace Execute(const JobContext& ctx, const ParallelPlan& plan) const;

 private:
  const PerfModel* model_;
};

// Writes the trace as Chrome-trace-format JSON (one row per pipeline stage;
// microbatches as complete events, the gradient sync as a final span).
// Loadable in chrome://tracing or https://ui.perfetto.dev.
void WriteChromeTrace(const IterationTrace& trace, const ParallelPlan& plan,
                      std::ostream& out);

}  // namespace crius

#endif  // BENCH_PIPELINE_ENGINE_H_
