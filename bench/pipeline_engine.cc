#include "bench/pipeline_engine.h"

#include <algorithm>
#include <ostream>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/trace.h"

namespace crius {

double IterationTrace::BubbleFraction() const {
  if (intervals.empty() || pipeline_makespan <= 0.0) {
    return 0.0;
  }
  double busy = 0.0;
  for (const StageInterval& iv : intervals) {
    busy += iv.finish - iv.start;
  }
  const double total = pipeline_makespan * static_cast<double>(num_stages());
  return 1.0 - busy / total;
}

double IterationTrace::StageBusySeconds(int stage) const {
  double busy = 0.0;
  for (const StageInterval& iv : intervals) {
    if (iv.stage == stage) {
      busy += iv.finish - iv.start;
    }
  }
  return busy;
}

const StageInterval& IterationTrace::At(int stage, int microbatch) const {
  const int b = num_microbatches();
  CRIUS_CHECK(stage >= 0 && stage < num_stages());
  CRIUS_CHECK(microbatch >= 0 && microbatch < b);
  const size_t index = static_cast<size_t>(stage) * static_cast<size_t>(b) +
                       static_cast<size_t>(microbatch);
  return intervals[index];
}

PipelineEngine::PipelineEngine(const PerfModel* model) : model_(model) {
  CRIUS_CHECK(model != nullptr);
}

IterationTrace PipelineEngine::Execute(const JobContext& ctx, const ParallelPlan& plan) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_TRACE_SPAN("engine.execute");
  CRIUS_COUNTER_INC("engine.executions");
  ValidatePlan(plan, *ctx.graph);
  const int nstages = plan.num_stages();
  const int b = plan.num_microbatches();
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(b);

  IterationTrace trace;
  trace.stage_time.resize(static_cast<size_t>(nstages));
  trace.boundary_time.assign(static_cast<size_t>(nstages), 0.0);

  // Per-stage latencies and inbound boundary costs from the model.
  double max_sync = 0.0;
  int gpu_offset = 0;
  for (int s = 0; s < nstages; ++s) {
    const StagePlan& sp = plan.stages[static_cast<size_t>(s)];
    const StageEval ev = model_->EvalStage(ctx, StageRange{sp.op_begin, sp.op_end, sp.gpus},
                                           sp.dp, sp.tp, nstages, b);
    trace.stage_time[static_cast<size_t>(s)] = ev.t_microbatch;
    max_sync = std::max(max_sync, ev.t_dp_sync);
    if (s > 0) {
      const double bytes = ctx.graph->BoundaryBytes(sp.op_begin) * microbatch;
      const bool cross_node = (gpu_offset % ctx.topo.gpus_per_node) == 0;
      trace.boundary_time[static_cast<size_t>(s)] = model_->BoundaryTransferTime(
          ctx, bytes, plan.stages[static_cast<size_t>(s) - 1].tp, sp.tp, cross_node);
    }
    gpu_offset += sp.gpus;
  }

  // Dependency-exact execution.
  trace.intervals.reserve(static_cast<size_t>(nstages) * static_cast<size_t>(b));
  std::vector<double> prev_stage_finish(static_cast<size_t>(b), 0.0);
  for (int s = 0; s < nstages; ++s) {
    double own_free_at = 0.0;
    for (int m = 0; m < b; ++m) {
      double ready = own_free_at;
      if (s > 0) {
        ready = std::max(ready,
                         prev_stage_finish[static_cast<size_t>(m)] +
                             trace.boundary_time[static_cast<size_t>(s)]);
      }
      StageInterval iv;
      iv.stage = s;
      iv.microbatch = m;
      iv.start = ready;
      iv.finish = ready + trace.stage_time[static_cast<size_t>(s)];
      own_free_at = iv.finish;
      prev_stage_finish[static_cast<size_t>(m)] = iv.finish;
      trace.pipeline_makespan = std::max(trace.pipeline_makespan, iv.finish);
      trace.intervals.push_back(iv);
    }
  }

  trace.dp_sync = PerfModel::kDpSyncExposedFraction * max_sync;
  trace.total_time = trace.pipeline_makespan + trace.dp_sync + PerfModel::kIterOverhead;
  return trace;
}

void WriteChromeTrace(const IterationTrace& trace, const ParallelPlan& plan,
                      std::ostream& out) {
  // Chrome-trace "complete" events: ts/dur in microseconds, one tid per stage.
  out << "[";
  bool first = true;
  auto emit = [&](const std::string& name, int tid, double start, double dur) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n {\"name\": \"" << name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << start * 1e6 << ", \"dur\": " << dur * 1e6 << "}";
  };
  for (const StageInterval& iv : trace.intervals) {
    const StagePlan& sp = plan.stages[static_cast<size_t>(iv.stage)];
    emit("mb" + std::to_string(iv.microbatch) + " (D" + std::to_string(sp.dp) + "T" +
             std::to_string(sp.tp) + ")",
         iv.stage, iv.start, iv.finish - iv.start);
  }
  if (trace.dp_sync > 0.0) {
    emit("grad all_reduce (exposed)", 0, trace.pipeline_makespan, trace.dp_sync);
  }
  out << "\n]\n";
}

}  // namespace crius
