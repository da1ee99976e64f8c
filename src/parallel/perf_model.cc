#include "src/parallel/perf_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"
#include "src/util/mathutil.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace crius {

double BatchUtilization(ModelFamily family, double samples) {
  CRIUS_CHECK(samples > 0.0);
  const double half = BatchHalfPoint(family);
  return samples / (samples + half);
}

double TpEfficiency(int tp) {
  CRIUS_CHECK(tp >= 1);
  return 1.0 - PerfModel::kTpEffLossPerDoubling * static_cast<double>(Log2Floor(tp));
}

PerfModel::PerfModel(const Cluster& cluster) {
  for (GpuType type : AllGpuTypes()) {
    const int ti = static_cast<int>(type);
    if (cluster.HasType(type)) {
      topo_[ti] = cluster.TopologyFor(type);
      has_type_[ti] = true;
    }
  }
}

JobContext PerfModel::MakeContext(const ModelSpec& spec, GpuType type) const {
  CRIUS_CHECK_MSG(HasType(type), "no " << GpuName(type) << " in cluster");
  JobContext ctx;
  ctx.graph = &GetOpGraph(spec);
  ctx.family = spec.family;
  ctx.global_batch = spec.global_batch;
  ctx.gpu_type = type;
  ctx.topo = topo_[static_cast<int>(type)];
  ctx.model_key = HashString(spec.Key());
  return ctx;
}

const std::vector<StageRange>& PerfModel::Stages(const JobContext& ctx, int ngpus,
                                                int nstages) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  auto [it, inserted] = stages_cache_.try_emplace(StagesKey{ctx.graph, ngpus, nstages});
  if (inserted) {
    it->second = PartitionStages(*ctx.graph, ngpus, nstages);
  }
  return it->second;
}

namespace {

// Topology seen by a data-parallel group whose replicas are tp GPUs apart:
// with tp GPUs packed innermost, a node holds gpus_per_node / tp replicas.
GroupTopology DpGroupTopology(const GroupTopology& topo, int tp) {
  GroupTopology t = topo;
  const int tp_in_node = std::min(tp, topo.gpus_per_node);
  t.gpus_per_node = std::max(1, topo.gpus_per_node / tp_in_node);
  return t;
}

}  // namespace

StageEval PerfModel::EvalStage(const JobContext& ctx, const StageRange& range, int dp, int tp,
                               int nstages, int num_microbatches) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK(dp >= 1 && tp >= 1);
  CRIUS_CHECK_MSG(dp * tp == range.gpus, "dp*tp != stage gpus");
  const OpGraph& g = *ctx.graph;
  const GpuSpec& spec = GpuSpecOf(ctx.gpu_type);

  if (num_microbatches <= 0) {
    num_microbatches = 4 * nstages;
  }
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);
  // Samples processed by one tensor-parallel group per microbatch.
  const double local_samples = microbatch / static_cast<double>(dp);

  StageEval eval;

  // --- Compute -------------------------------------------------------------
  const double fwd_flops = g.FwdFlops(range.op_begin, range.op_end);
  const double eff = ComputeEfficiency(ctx.family) * TpEfficiency(tp) *
                     BatchUtilization(ctx.family, local_samples);
  eval.t_compute_single = kTrainFlopsMult * fwd_flops * local_samples /
                          (static_cast<double>(tp) * spec.peak_flops * eff);
  const double straggler =
      1.0 + kStragglerPerDoubling * static_cast<double>(Log2Floor(dp * tp));
  eval.t_compute = eval.t_compute_single * straggler;

  // --- Intra-stage communication --------------------------------------------
  double t_comm = 0.0;
  if (tp > 1) {
    const double tp_bytes = g.TpCommBytes(range.op_begin, range.op_end) * local_samples;
    t_comm += AllReduceTime(ctx.topo, tp_bytes, tp);
    const double a2a_bytes = g.A2aBytes(range.op_begin, range.op_end) * local_samples;
    if (a2a_bytes > 0.0) {
      t_comm += AllToAllTime(ctx.topo, a2a_bytes, tp);
    }
  }
  eval.t_microbatch = eval.t_compute + t_comm;

  // --- Gradient synchronization ---------------------------------------------
  if (dp > 1) {
    const double grad_bytes =
        g.ParamBytes(range.op_begin, range.op_end) / static_cast<double>(tp);
    eval.t_dp_sync = AllReduceTime(DpGroupTopology(ctx.topo, tp), grad_bytes, dp);
  }

  // --- Memory ----------------------------------------------------------------
  const double weight_state =
      g.ParamBytes(range.op_begin, range.op_end) * kOptimStateMult / static_cast<double>(tp);
  // 1F1B-style schedule keeps ~nstages microbatches of activations in flight.
  const double in_flight = static_cast<double>(nstages);
  const double acts = g.ActMemBytes(range.op_begin, range.op_end) * local_samples /
                      static_cast<double>(tp) * in_flight;
  eval.mem_bytes = weight_state + acts + kWorkspaceBytes;
  eval.fits = eval.mem_bytes <= spec.memory_bytes * kMemLimitFraction;

  return eval;
}

double PerfModel::BoundaryTransferTime(const JobContext& ctx, double bytes, int tp_prev,
                                       int tp_next, bool cross_node) const {
  // Sharded producers send their slices in parallel; a tensor-degree change
  // adds an all-gather to reassemble the activation in the consumer group.
  // Counted twice: forward activations and backward gradients.
  const double slice = bytes / static_cast<double>(std::max(1, tp_prev));
  double t = SendRecvTime(ctx.topo, slice, cross_node);
  if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
    t += AllGatherTime(ctx.topo, bytes, std::max(tp_prev, tp_next));
  }
  return 2.0 * t;
}

PlanEval PerfModel::Evaluate(const JobContext& ctx, const ParallelPlan& plan) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK(!plan.stages.empty());
  CRIUS_CHECK(plan.gpu_type == ctx.gpu_type);
  const OpGraph& g = *ctx.graph;
  const int nstages = plan.num_stages();
  const int num_microbatches = plan.num_microbatches();
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);

  PlanEval out;
  out.feasible = true;

  double sum_stage = 0.0;
  double max_stage = 0.0;
  double sum_boundary = 0.0;
  double max_dp_sync = 0.0;
  int gpu_offset = 0;

  for (int s = 0; s < nstages; ++s) {
    const StagePlan& sp = plan.stages[s];
    StageRange range{sp.op_begin, sp.op_end, sp.gpus};
    const StageEval ev = EvalStage(ctx, range, sp.dp, sp.tp, nstages, num_microbatches);
    if (!ev.fits) {
      out.feasible = false;
    }
    out.max_stage_mem = std::max(out.max_stage_mem, ev.mem_bytes);
    sum_stage += ev.t_microbatch;
    max_stage = std::max(max_stage, ev.t_microbatch);
    max_dp_sync = std::max(max_dp_sync, ev.t_dp_sync);

    if (s > 0) {
      const double bytes = g.BoundaryBytes(sp.op_begin) * microbatch;
      // A boundary stays on-node only if the consumer stage starts mid-node.
      const bool cross_node = (gpu_offset % ctx.topo.gpus_per_node) == 0;
      sum_boundary +=
          BoundaryTransferTime(ctx, bytes, plan.stages[s - 1].tp, sp.tp, cross_node);
    }
    gpu_offset += sp.gpus;
  }

  // §5.1 pipeline latency: first microbatch through all stages (compute +
  // boundary transfers), then B-1 microbatches at the slowest stage's pace
  // with communication overlapped, then the exposed part of gradient sync.
  out.iter_time = sum_stage + sum_boundary +
                  static_cast<double>(num_microbatches - 1) * max_stage +
                  kDpSyncExposedFraction * max_dp_sync + kIterOverhead;
  if (!out.feasible) {
    out.iter_time = std::numeric_limits<double>::infinity();
  }
  return out;
}

double DegradedIterTime(double iter_time, double slowdown) {
  CRIUS_CHECK_MSG(slowdown >= 1.0, "straggler slowdown below 1.0");
  return iter_time * slowdown;
}

double PerfModel::DirectProfileGpuSeconds(const JobContext& ctx, const ParallelPlan& plan) const {
  const PlanEval ev = Evaluate(ctx, plan);
  const double iter = ev.feasible ? ev.iter_time : 0.0;  // OOM aborts after setup
  return (kProfileSetupSeconds + static_cast<double>(kProfileIters) * iter) *
         static_cast<double>(plan.total_gpus());
}

}  // namespace crius
