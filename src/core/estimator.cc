#include "src/core/estimator.h"

#include <algorithm>
#include <cmath>

#include <utility>

#include "src/parallel/stage_partition.h"
#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/trace.h"

namespace crius {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One profiled stage option (dp-only or tp-only).
struct AssemblyOption {
  int dp = 1;
  int tp = 1;
  bool is_tp = false;
  // Estimated per-microbatch stage time (profiled compute + interpolated comm).
  double t_stage = 0.0;
  // Estimated gradient-sync time per iteration.
  double t_dp_sync = 0.0;
};

}  // namespace

CellEstimator::CellEstimator(const PerfModel* model, const CommProfile* comm, uint64_t seed,
                             double compute_jitter)
    : model_(model), comm_(comm), profiler_(model, seed, compute_jitter) {
  CRIUS_CHECK(model != nullptr);
  CRIUS_CHECK(comm != nullptr);
}

// The SoA assembly. Bit-identity with EstimateReference below rests on three
// invariants, each load-bearing:
//   1. Per-plan arithmetic order is unchanged: a plan's running sum adds
//      t_stage first, then the boundary term, stage by stage, and the final
//      total is ((sum + (B-1)*max_stage) + f*max_sync) + overhead -- the exact
//      association the DFS used, so every double is the same double.
//   2. Leaf order is the DFS's: the DFS pushed options in index order and
//      popped LIFO, exploring the highest option index first, with stage 0
//      outermost. Level expansion therefore stores children in DESCENDING
//      option order (slot j holds option n-1-j), making linear leaf index
//      order equal DFS visitation order.
//   3. The min-reduction is a forward scan with strict '<', so the first
//      leaf in DFS order wins ties, exactly like the incremental DFS update.
CellEstimate CellEstimator::Estimate(const JobContext& ctx, const Cell& cell) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK_MSG(ctx.gpu_type == cell.gpu_type, "context/cell GPU type mismatch");
  CRIUS_TRACE_SPAN("estimator.estimate");
  CRIUS_COUNTER_INC("estimator.evaluations");
  CRIUS_SCOPED_TIMER_MS("estimator.eval_ms");
  const OpGraph& g = *ctx.graph;
  Arena& arena = arena_;
  arena.Reset();

  CellEstimate out;
  if (cell.nstages > std::min<int>(cell.ngpus, static_cast<int>(g.size()))) {
    return out;
  }

  const std::vector<StageRange> ranges = PartitionStages(g, cell.ngpus, cell.nstages);
  const size_t num_stages = ranges.size();
  const int nstages = cell.nstages;
  const int num_microbatches = 4 * nstages;
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);

  // --- Profile the two grid plans (dp-only / tp-only per stage) -------------
  // At most two surviving options per stage; opts[2*s + oi] with opt_count[s]
  // live entries.
  AssemblyOption* opts = arena.AllocateArray<AssemblyOption>(2 * num_stages);
  int* opt_count = arena.AllocateArray<int>(num_stages);
  {
    CRIUS_TRACE_SPAN("estimator.grid_sample");
    for (size_t s = 0; s < num_stages; ++s) {
      const StageRange& range = ranges[s];
      opt_count[s] = 0;
      const int splits[2][2] = {{range.gpus, 1}, {1, range.gpus}};
      const int num_splits = range.gpus > 1 ? 2 : 1;
      for (int si = 0; si < num_splits; ++si) {
        const int dp = splits[si][0];
        const int tp = splits[si][1];
        const StageProfile prof = profiler_.ProfileStage(ctx, range, dp, tp, nstages);
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
          t_comm += comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes, tp);
          const double a2a_bytes = g.A2aBytes(range.op_begin, range.op_end) * local_samples;
          if (a2a_bytes > 0.0) {
            t_comm += comm_->Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, tp);
          }
        }
        opt.t_stage = prof.t_compute + t_comm;
        if (dp > 1) {
          const double grad_bytes =
              g.ParamBytes(range.op_begin, range.op_end) / static_cast<double>(tp);
          opt.t_dp_sync =
              comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, grad_bytes, dp);
        }
        opts[2 * s + static_cast<size_t>(opt_count[s])] = opt;
        ++opt_count[s];
      }
      if (opt_count[s] == 0) {
        return out;  // infeasible Cell: some stage fits under no sampled plan
      }
    }
  }

  // --- Assemble all 2^Ns combinations (Fig. 9) ------------------------------
  int* offsets = arena.AllocateArray<int>(num_stages);
  offsets[0] = 0;
  for (size_t s = 1; s < num_stages; ++s) {
    offsets[s] = offsets[s - 1] + ranges[s - 1].gpus;
  }

  // Boundary-time table bnd[s][prev_oi][cur_oi] for s >= 1: the inter-stage
  // transfer cost is a pure function of (stage, previous option, option), so
  // it is computed once per pair instead of once per assembled plan. The
  // arithmetic matches the reference's boundary() lambda exactly.
  double* bnd = arena.AllocateArray<double>(4 * num_stages);
  for (size_t s = 1; s < num_stages; ++s) {
    const double bytes = g.BoundaryBytes(ranges[s].op_begin) * microbatch;
    const bool cross_node = (offsets[s] % ctx.topo.gpus_per_node) == 0;
    for (int po = 0; po < opt_count[s - 1]; ++po) {
      const int tp_prev = opts[2 * (s - 1) + static_cast<size_t>(po)].tp;
      for (int oi = 0; oi < opt_count[s]; ++oi) {
        const int tp_next = opts[2 * s + static_cast<size_t>(oi)].tp;
        const double slice = bytes / static_cast<double>(std::max(1, tp_prev));
        double t = comm_->EstimateSendRecv(ctx.gpu_type, slice, cross_node);
        if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
          t += comm_->Estimate(CollectiveKind::kAllGather, ctx.gpu_type, bytes,
                               std::max(tp_prev, tp_next));
        }
        bnd[4 * s + 2 * static_cast<size_t>(po) + static_cast<size_t>(oi)] = 2.0 * t;
      }
    }
  }

  size_t leaves = 1;
  for (size_t s = 0; s < num_stages; ++s) {
    leaves *= static_cast<size_t>(opt_count[s]);
  }

  // Double-buffered SoA level arrays: partial plans of the first s stages as
  // parallel (running sum, max stage time, max sync time) columns.
  double* sum_cur = arena.AllocateArray<double>(leaves);
  double* sum_next = arena.AllocateArray<double>(leaves);
  double* maxst_cur = arena.AllocateArray<double>(leaves);
  double* maxst_next = arena.AllocateArray<double>(leaves);
  double* maxsy_cur = arena.AllocateArray<double>(leaves);
  double* maxsy_next = arena.AllocateArray<double>(leaves);

  size_t width = 1;
  sum_cur[0] = 0.0;
  maxst_cur[0] = 0.0;
  maxsy_cur[0] = 0.0;
  {
    CRIUS_TRACE_SPAN("estimator.assemble");
    for (size_t s = 0; s < num_stages; ++s) {
      const size_t n = static_cast<size_t>(opt_count[s]);
      const size_t n_prev = s > 0 ? static_cast<size_t>(opt_count[s - 1]) : 1;
      for (size_t p = 0; p < width; ++p) {
        // Slot layout is descending-option (invariant 2), so the parent's own
        // option index at stage s-1 is n_prev-1 minus its last digit.
        const size_t prev_oi = s > 0 ? (n_prev - 1 - (p % n_prev)) : 0;
        const double* brow = bnd + 4 * s + 2 * prev_oi;
        const size_t base = p * n;
        for (size_t j = 0; j < n; ++j) {
          const size_t oi = n - 1 - j;
          const AssemblyOption& opt = opts[2 * s + oi];
          double sum = sum_cur[p] + opt.t_stage;
          if (s > 0) {
            sum += brow[oi];
          }
          sum_next[base + j] = sum;
          maxst_next[base + j] = std::max(maxst_cur[p], opt.t_stage);
          maxsy_next[base + j] = std::max(maxsy_cur[p], opt.t_dp_sync);
        }
      }
      std::swap(sum_cur, sum_next);
      std::swap(maxst_cur, maxst_next);
      std::swap(maxsy_cur, maxsy_next);
      width *= n;
    }
  }
  CRIUS_CHECK(width == leaves);

  // Totals: an elementwise pass the compiler can vectorize, then a forward
  // strict-min scan (invariant 3). Reuses the retired swap buffer.
  double* totals = sum_next;
  const double mb1 = static_cast<double>(num_microbatches - 1);
  for (size_t i = 0; i < width; ++i) {
    totals[i] = sum_cur[i] + mb1 * maxst_cur[i] +
                PerfModel::kDpSyncExposedFraction * maxsy_cur[i] + PerfModel::kIterOverhead;
  }
  double best_time = kInf;
  size_t best_leaf = 0;
  for (size_t i = 0; i < width; ++i) {
    if (totals[i] < best_time) {
      best_time = totals[i];
      best_leaf = i;
    }
  }
  out.plans_assembled = static_cast<int>(width);
  CRIUS_CHECK(best_time < kInf);

  // Decode the winning leaf back into per-stage option indices (mixed radix,
  // stage 0 most significant, descending-option slots).
  int* best_choice = arena.AllocateArray<int>(num_stages);
  {
    size_t idx = best_leaf;
    for (size_t s = num_stages; s-- > 0;) {
      const size_t n = static_cast<size_t>(opt_count[s]);
      best_choice[s] = static_cast<int>(n - 1 - (idx % n));
      idx /= n;
    }
  }

  // --- Materialize the winning assembled plan -------------------------------
  out.feasible = true;
  out.iter_time = best_time;
  out.plan.gpu_type = ctx.gpu_type;
  out.stage_prefers_tp.resize(num_stages);
  out.stage_tp_range.resize(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    const AssemblyOption& opt = opts[2 * s + static_cast<size_t>(best_choice[s])];
    StagePlan sp;
    sp.op_begin = ranges[s].op_begin;
    sp.op_end = ranges[s].op_end;
    sp.gpus = ranges[s].gpus;
    sp.dp = opt.dp;
    sp.tp = opt.tp;
    out.plan.stages.push_back(sp);
    out.stage_prefers_tp[s] = opt.is_tp;

    // Tuning range (§5.2 pruning). With both grid probes available the favor
    // picks the half; when the dp-only probe OOMed, the comparison is void,
    // so profile the half-hybrid point too and favor the winning half.
    const int gpus = ranges[s].gpus;
    const int half_floor = HalfHybridFloor(gpus);
    const int half_ceil = HalfHybridCeil(gpus);
    if (gpus == 1) {
      out.stage_tp_range[s] = {1, 1};
    } else if (opt_count[s] >= 2) {
      out.stage_tp_range[s] =
          opt.is_tp ? std::make_pair(half_ceil, gpus) : std::make_pair(1, half_floor);
    } else if (!opt.is_tp) {
      // Only dp-only fit (tensor side dropped): favor the data half.
      out.stage_tp_range[s] = {1, half_floor};
    } else if (gpus >= 4) {
      const int dp = gpus / half_ceil;
      const StageProfile hybrid =
          profiler_.ProfileStage(ctx, ranges[s], dp, half_ceil, nstages);
      out.profile_gpu_seconds += hybrid.gpu_seconds;
      bool hybrid_wins = false;
      if (hybrid.fits) {
        const double tp_bytes =
            g.TpCommBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        double t = hybrid.t_compute +
                   comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes,
                                   half_ceil);
        const double a2a_bytes =
            g.A2aBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        if (a2a_bytes > 0.0) {
          t += comm_->Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, half_ceil);
        }
        hybrid_wins = t < opt.t_stage;
      }
      // tp == 1 is known-OOM; the lower half starts at 2.
      out.stage_tp_range[s] =
          hybrid_wins ? std::make_pair(2, half_ceil) : std::make_pair(half_ceil, gpus);
    } else {
      out.stage_tp_range[s] = {2, gpus};
    }
  }
  CRIUS_HISTOGRAM_RECORD("estimator.plans_assembled", static_cast<double>(out.plans_assembled));
  CRIUS_HISTOGRAM_RECORD("estimator.profile_gpu_s", out.profile_gpu_seconds);
  CRIUS_COUNTER_ADD("estimator.arena_bytes", static_cast<int64_t>(arena.bytes_served()));
  return out;
}

// Pre-refactor assembly, preserved verbatim (modulo instrumentation) as the
// golden reference for the SoA path's bit-identity test. Heap-allocating and
// exponential-stack-ish by design -- never call it on a hot path.
CellEstimate CellEstimator::EstimateReference(const JobContext& ctx, const Cell& cell) const {
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
      const StageProfile prof = profiler_.ProfileStage(ctx, range, dp, tp, nstages);
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
        t_comm += comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes, tp);
        const double a2a_bytes = g.A2aBytes(range.op_begin, range.op_end) * local_samples;
        if (a2a_bytes > 0.0) {
          t_comm += comm_->Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, tp);
        }
      }
      opt.t_stage = prof.t_compute + t_comm;
      if (dp > 1) {
        const double grad_bytes =
            g.ParamBytes(range.op_begin, range.op_end) / static_cast<double>(tp);
        opt.t_dp_sync =
            comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, grad_bytes, dp);
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
    double t = comm_->EstimateSendRecv(ctx.gpu_type, slice, cross_node);
    if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
      t += comm_->Estimate(CollectiveKind::kAllGather, ctx.gpu_type, bytes,
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
          profiler_.ProfileStage(ctx, ranges[s], dp, half_ceil, nstages);
      out.profile_gpu_seconds += hybrid.gpu_seconds;
      bool hybrid_wins = false;
      if (hybrid.fits) {
        const double tp_bytes =
            g.TpCommBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        double t = hybrid.t_compute +
                   comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, tp_bytes,
                                   half_ceil);
        const double a2a_bytes =
            g.A2aBytes(ranges[s].op_begin, ranges[s].op_end) * microbatch / dp;
        if (a2a_bytes > 0.0) {
          t += comm_->Estimate(CollectiveKind::kAllToAll, ctx.gpu_type, a2a_bytes, half_ceil);
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
