#include "tests/estimator_reference.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/parallel/stage_partition.h"
#include "src/util/check.h"
#include "src/util/mathutil.h"

namespace crius {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One profiled stage option (dp-only or tp-only).
struct AssemblyOption {
  int dp = 1;
  int tp = 1;
  bool is_tp = false;
  double t_stage = 0.0;
  double t_dp_sync = 0.0;
};

}  // namespace

CellEstimate EstimateCellReference(const CommProfile& comm, const SingleDeviceProfiler& profiler,
                                   const JobContext& ctx, const Cell& cell) {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK_MSG(ctx.gpu_type == cell.gpu_type, "context/cell GPU type mismatch");
  const OpGraph& g = *ctx.graph;

  CellEstimate out;
  if (cell.nstages > std::min<int>(cell.ngpus, static_cast<int>(g.size()))) {
    return out;
  }

  const std::vector<StageRange> ranges = PartitionStages(g, cell.ngpus, cell.nstages);
  const int nstages = cell.nstages;
  const int num_microbatches = 4 * nstages;
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);

  // --- Profile the two grid plans (dp-only / tp-only per stage) -------------
  std::vector<std::vector<AssemblyOption>> options(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    const StageRange& range = ranges[s];
    std::vector<std::pair<int, int>> splits;  // (dp, tp)
    splits.emplace_back(range.gpus, 1);
    if (range.gpus > 1) {
      splits.emplace_back(1, range.gpus);
    }
    for (const auto& [dp, tp] : splits) {
      const StageProfile prof = profiler.ProfileStage(ctx, range, dp, tp, nstages);
      out.profile_gpu_seconds += prof.gpu_seconds;
      if (!prof.fits) {
        continue;  // the compiled plan reports OOM; drop it (§5.1)
      }
      AssemblyOption opt;
      opt.dp = dp;
      opt.tp = tp;
      opt.is_tp = tp > 1;
      const double local_samples = microbatch / static_cast<double>(dp);

      double t_comm = 0.0;
      if (tp > 1) {
        const double tp_bytes = g.TpCommBytes(range.op_begin, range.op_end) * local_samples;
        t_comm += comm.Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes, tp);
        const double a2a_bytes = g.A2aBytes(range.op_begin, range.op_end) * local_samples;
        if (a2a_bytes > 0.0) {
          t_comm += comm.Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, tp);
        }
      }
      opt.t_stage = prof.t_compute + t_comm;
      if (dp > 1) {
        const double grad_bytes =
            g.ParamBytes(range.op_begin, range.op_end) / static_cast<double>(tp);
        opt.t_dp_sync =
            comm.Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, grad_bytes, dp);
      }
      options[s].push_back(opt);
    }
    if (options[s].empty()) {
      return out;  // infeasible Cell: some stage fits under no sampled plan
    }
  }

  // --- Assemble all 2^Ns combinations (Fig. 9) ------------------------------
  std::vector<int> offsets(ranges.size(), 0);
  for (size_t s = 1; s < ranges.size(); ++s) {
    offsets[s] = offsets[s - 1] + ranges[s - 1].gpus;
  }

  auto boundary = [&](size_t s, int tp_prev, int tp_next) {
    const double bytes = g.BoundaryBytes(ranges[s].op_begin) * microbatch;
    const bool cross_node = (offsets[s] % ctx.topo.gpus_per_node) == 0;
    const double slice = bytes / static_cast<double>(std::max(1, tp_prev));
    double t = comm.EstimateSendRecv(ctx.gpu_type, slice, cross_node);
    if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
      t += comm.Estimate(CollectiveKind::kAllGather, ctx.gpu_type, bytes,
                           std::max(tp_prev, tp_next));
    }
    return 2.0 * t;
  };

  struct State {
    double sum = 0.0;
    double max_stage = 0.0;
    double max_sync = 0.0;
    int last_tp = 1;
    std::vector<int> choice;
  };

  double best_time = kInf;
  std::vector<int> best_choice;
  {
    std::vector<State> stack;
    stack.push_back(State{});
    while (!stack.empty()) {
      State st = std::move(stack.back());
      stack.pop_back();
      const size_t s = st.choice.size();
      if (s == ranges.size()) {
        ++out.plans_assembled;
        const double total = st.sum + static_cast<double>(num_microbatches - 1) * st.max_stage +
                             PerfModel::kDpSyncExposedFraction * st.max_sync +
                             PerfModel::kIterOverhead;
        if (total < best_time) {
          best_time = total;
          best_choice = st.choice;
        }
        continue;
      }
      for (size_t oi = 0; oi < options[s].size(); ++oi) {
        const AssemblyOption& opt = options[s][oi];
        State next = st;
        next.sum += opt.t_stage;
        if (s > 0) {
          next.sum += boundary(s, st.last_tp, opt.tp);
        }
        next.max_stage = std::max(next.max_stage, opt.t_stage);
        next.max_sync = std::max(next.max_sync, opt.t_dp_sync);
        next.last_tp = opt.tp;
        next.choice.push_back(static_cast<int>(oi));
        stack.push_back(std::move(next));
      }
    }
  }
  CRIUS_CHECK(best_choice.size() == ranges.size());

  // --- Materialize the winning assembled plan -------------------------------
  out.feasible = true;
  out.iter_time = best_time;
  out.plan.gpu_type = ctx.gpu_type;
  out.stage_prefers_tp.resize(ranges.size());
  out.stage_tp_range.resize(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    const AssemblyOption& opt = options[s][static_cast<size_t>(best_choice[s])];
    StagePlan sp;
    sp.op_begin = ranges[s].op_begin;
    sp.op_end = ranges[s].op_end;
    sp.gpus = ranges[s].gpus;
    sp.dp = opt.dp;
    sp.tp = opt.tp;
    out.plan.stages.push_back(sp);
    out.stage_prefers_tp[s] = opt.is_tp;

    const int gpus = ranges[s].gpus;
    const int half_floor = HalfHybridFloor(gpus);
    const int half_ceil = HalfHybridCeil(gpus);
    if (gpus == 1) {
      out.stage_tp_range[s] = {1, 1};
    } else if (options[s].size() >= 2) {
      out.stage_tp_range[s] =
          opt.is_tp ? std::make_pair(half_ceil, gpus) : std::make_pair(1, half_floor);
    } else if (!opt.is_tp) {
      out.stage_tp_range[s] = {1, half_floor};
    } else if (gpus >= 4) {
      const int dp = gpus / half_ceil;
      const StageProfile hybrid =
          profiler.ProfileStage(ctx, ranges[s], dp, half_ceil, nstages);
      out.profile_gpu_seconds += hybrid.gpu_seconds;
      bool hybrid_wins = false;
      if (hybrid.fits) {
        const double tp_bytes =
            g.TpCommBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        double t = hybrid.t_compute +
                   comm.Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes,
                                   half_ceil);
        const double a2a_bytes =
            g.A2aBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        if (a2a_bytes > 0.0) {
          t += comm.Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, half_ceil);
        }
        hybrid_wins = t < opt.t_stage;
      }
      out.stage_tp_range[s] =
          hybrid_wins ? std::make_pair(2, half_ceil) : std::make_pair(half_ceil, gpus);
    } else {
      out.stage_tp_range[s] = {2, gpus};
    }
  }
  return out;
}

}  // namespace crius
