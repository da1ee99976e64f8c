#include "src/core/estimator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/trace.h"

namespace crius {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A plan's total, in the association the enumeration used:
// ((sum + (B-1)*max_stage) + f*max_sync) + overhead.
double PlanTotal(const StageChain& chain, double sum, double max_stage, double max_sync) {
  return sum + static_cast<double>(chain.num_microbatches - 1) * max_stage +
         PerfModel::kDpSyncExposedFraction * max_sync + PerfModel::kIterOverhead;
}

// Min-sum Viterbi pass over stages (s0, Ns) using only options whose stage
// time is <= cap_stage and sync time <= cap_sync. `cur[o]` holds the smallest
// running sum of a prefix ending in option o at stage s0 (kInf if none).
// Returns the smallest running sum over all complete chains (kInf if none).
double MinChainSum(const StageChain& chain, size_t s0, double cur[2], double cap_stage,
                   double cap_sync) {
  for (size_t s = s0 + 1; s < chain.num_stages; ++s) {
    double next[2] = {kInf, kInf};
    for (int o = 0; o < chain.opt_count[s]; ++o) {
      const size_t i = 2 * s + static_cast<size_t>(o);
      if (chain.t_stage[i] > cap_stage || chain.t_dp_sync[i] > cap_sync) {
        continue;
      }
      for (int po = 0; po < chain.opt_count[s - 1]; ++po) {
        const double sum = cur[po] + chain.t_stage[i] +
                           chain.boundary[4 * s + 2 * static_cast<size_t>(po) +
                                          static_cast<size_t>(o)];
        next[o] = std::min(next[o], sum);
      }
    }
    cur[0] = next[0];
    cur[1] = next[1];
  }
  return std::min(cur[0], cur[1]);
}

// Viterbi over the whole chain under the caps.
double MinChainSum(const StageChain& chain, double cap_stage, double cap_sync) {
  double cur[2] = {kInf, kInf};
  for (int o = 0; o < chain.opt_count[0]; ++o) {
    if (chain.t_stage[o] <= cap_stage && chain.t_dp_sync[o] <= cap_sync) {
      cur[o] = chain.t_stage[o];
    }
  }
  return MinChainSum(chain, 0, cur, cap_stage, cap_sync);
}

// Replaces *caps with the values one column's maximum can take over complete
// chains, ascending and deduplicated: every option's value except those below
// the largest per-stage minimum, which every chain reaches.
void CandidateMaxima(const StageChain& chain, const double* values, std::vector<double>* caps) {
  double floor = 0.0;
  for (size_t s = 0; s < chain.num_stages; ++s) {
    const double stage_min =
        chain.opt_count[s] > 1 ? std::min(values[2 * s], values[2 * s + 1]) : values[2 * s];
    floor = std::max(floor, stage_min);
  }
  caps->clear();
  for (size_t s = 0; s < chain.num_stages; ++s) {
    for (int o = 0; o < chain.opt_count[s]; ++o) {
      const double v = values[2 * s + static_cast<size_t>(o)];
      if (v >= floor) {
        caps->push_back(v);
      }
    }
  }
  std::sort(caps->begin(), caps->end());
  caps->erase(std::unique(caps->begin(), caps->end()), caps->end());
}

// A cap pair on the two column maxima and the best plan total under it.
struct CapPair {
  double stage = 0.0;
  double sync = 0.0;
  double total = 0.0;
};

}  // namespace

CellEstimator::CellEstimator(const PerfModel* model, const CommProfile* comm, uint64_t seed,
                             double compute_jitter)
    : model_(model), comm_(comm), profiler_(model, seed, compute_jitter) {
  CRIUS_CHECK(model != nullptr);
  CRIUS_CHECK(comm != nullptr);
}

// The chain assembly (DESIGN.md §14 "Chain assembly"). It returns exactly the
// minimum and the winner the enumeration of all combinations would, because:
//   1. A plan's total is ((S + (B-1)*max_stage) + f*max_sync) + overhead,
//      where S adds t_stage, then the boundary term, stage by stage. Floating
//      '+' and multiplication by a positive constant are monotone, so for
//      fixed caps on the two maxima the smallest S gives the smallest total,
//      and a Viterbi pass's min over prefixes equals the min over chains.
//   2. Every plan's maxima are some option's values. The cap pair equal to the
//      optimal plan's maxima scores at most its total, and every cap pair
//      scores at least the total of the chain it found. So the min over cap
//      pairs is the optimal total, the same double.
//   3. Ties go to the first plan in depth-first order (stage 0 outermost,
//      highest option index first): stage by stage, take the first option
//      after which some completion still reaches the best total under a tight
//      cap pair (one scoring exactly the best).
double AssembleChain(const StageChain& chain, int* choice) {
  const size_t ns = chain.num_stages;
  CRIUS_CHECK(ns >= 1);
  for (size_t s = 0; s < ns; ++s) {
    CRIUS_CHECK(chain.opt_count[s] == 1 || chain.opt_count[s] == 2);
  }

  // Scratch kept per thread, so steady-state calls reuse its capacity;
  // every call clears it before use.
  thread_local std::vector<double> caps_stage;
  thread_local std::vector<double> caps_sync;
  thread_local std::vector<CapPair> pairs;
  CandidateMaxima(chain, chain.t_stage, &caps_stage);
  CandidateMaxima(chain, chain.t_dp_sync, &caps_sync);

  // Scores every cap pair in ascending order. A pair cannot beat the
  // uncapped min chain under its own caps, so the scan stops as soon as that
  // bound exceeds the best score.
  pairs.clear();
  const double free_sum = MinChainSum(chain, kInf, kInf);
  double best_time = kInf;
  for (size_t i = 0; i < caps_stage.size(); ++i) {
    if (PlanTotal(chain, free_sum, caps_stage[i], caps_sync[0]) > best_time) {
      break;
    }
    for (size_t j = 0; j < caps_sync.size(); ++j) {
      if (PlanTotal(chain, free_sum, caps_stage[i], caps_sync[j]) > best_time) {
        break;
      }
      const double sum = MinChainSum(chain, caps_stage[i], caps_sync[j]);
      if (sum == kInf) {
        continue;
      }
      const CapPair pair{caps_stage[i], caps_sync[j],
                         PlanTotal(chain, sum, caps_stage[i], caps_sync[j])};
      pairs.push_back(pair);
      best_time = std::min(best_time, pair.total);
    }
  }
  CRIUS_CHECK(best_time < kInf);
  std::erase_if(pairs, [best_time](const CapPair& pair) { return pair.total != best_time; });

  // Tie walk (point 3).
  double prefix_sum = 0.0;
  double max_stage = 0.0;
  double max_sync = 0.0;
  for (size_t s = 0; s < ns; ++s) {
    int pick = -1;
    double pick_sum = 0.0;
    for (int o = chain.opt_count[s] - 1; o >= 0 && pick < 0; --o) {
      const size_t i = 2 * s + static_cast<size_t>(o);
      double sum = prefix_sum + chain.t_stage[i];
      if (s > 0) {
        sum += chain.boundary[4 * s + 2 * static_cast<size_t>(choice[s - 1]) +
                              static_cast<size_t>(o)];
      }
      const double stage_max = std::max(max_stage, chain.t_stage[i]);
      const double sync_max = std::max(max_sync, chain.t_dp_sync[i]);
      for (const CapPair& pair : pairs) {
        if (stage_max > pair.stage || sync_max > pair.sync) {
          continue;
        }
        double cur[2] = {kInf, kInf};
        cur[o] = sum;
        const double completion = MinChainSum(chain, s, cur, pair.stage, pair.sync);
        if (PlanTotal(chain, completion, pair.stage, pair.sync) <= best_time) {
          pick = o;
          pick_sum = sum;
          break;
        }
      }
    }
    CRIUS_CHECK_MSG(pick >= 0, "chain assembly lost the optimum at stage " << s);
    choice[s] = pick;
    prefix_sum = pick_sum;
    const size_t i = 2 * s + static_cast<size_t>(pick);
    max_stage = std::max(max_stage, chain.t_stage[i]);
    max_sync = std::max(max_sync, chain.t_dp_sync[i]);
  }
  return best_time;
}

CellEstimate CellEstimator::Estimate(const JobContext& ctx, const Cell& cell) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK_MSG(ctx.gpu_type == cell.gpu_type, "context/cell GPU type mismatch");
  CRIUS_TRACE_SPAN("estimator.estimate");
  CRIUS_COUNTER_INC("estimator.evaluations");
  CRIUS_SCOPED_TIMER_MS("estimator.eval_ms");
  const OpGraph& g = *ctx.graph;

  CellEstimate out;
  if (cell.nstages > std::min<int>(cell.ngpus, static_cast<int>(g.size()))) {
    return out;
  }

  const std::vector<StageRange>& ranges = model_->Stages(ctx, cell.ngpus, cell.nstages);
  const size_t num_stages = ranges.size();
  const int nstages = cell.nstages;
  const int num_microbatches = 4 * nstages;
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);

  // --- Profile the two grid plans (dp-only / tp-only per stage) -------------
  // At most two surviving options per stage; opts_[2*s + oi] with opt_count_[s]
  // live entries, their times in the chain arrays at the same index.
  opts_.resize(2 * num_stages);
  opt_count_.resize(num_stages);
  t_stage_.resize(2 * num_stages);
  t_dp_sync_.resize(2 * num_stages);
  {
    CRIUS_TRACE_SPAN("estimator.grid_sample");
    for (size_t s = 0; s < num_stages; ++s) {
      const StageRange& range = ranges[s];
      opt_count_[s] = 0;
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
        const size_t i = 2 * s + static_cast<size_t>(opt_count_[s]);
        opts_[i] = AssemblyOption{dp, tp};
        t_stage_[i] = prof.t_compute + t_comm;
        t_dp_sync_[i] = 0.0;
        if (dp > 1) {
          const double grad_bytes =
              g.ParamBytes(range.op_begin, range.op_end) / static_cast<double>(tp);
          t_dp_sync_[i] =
              comm_->Estimate(CollectiveKind::kAllReduce, ctx.gpu_type, grad_bytes, dp);
        }
        ++opt_count_[s];
      }
      if (opt_count_[s] == 0) {
        return out;  // infeasible Cell: some stage fits under no sampled plan
      }
    }
  }

  // --- Assemble the best of all 2^Ns combinations (Fig. 9) ----------------
  // Boundary-time table bnd_[s][prev_oi][cur_oi] for s >= 1: the inter-stage
  // transfer cost is a pure function of (stage, previous option, option).
  // `offset` is stage s's first GPU.
  bnd_.resize(4 * num_stages);
  int offset = 0;
  for (size_t s = 1; s < num_stages; ++s) {
    offset += ranges[s - 1].gpus;
    const double bytes = g.BoundaryBytes(ranges[s].op_begin) * microbatch;
    const bool cross_node = (offset % ctx.topo.gpus_per_node) == 0;
    for (int po = 0; po < opt_count_[s - 1]; ++po) {
      const int tp_prev = opts_[2 * (s - 1) + static_cast<size_t>(po)].tp;
      for (int oi = 0; oi < opt_count_[s]; ++oi) {
        const int tp_next = opts_[2 * s + static_cast<size_t>(oi)].tp;
        const double slice = bytes / static_cast<double>(std::max(1, tp_prev));
        double t = comm_->EstimateSendRecv(ctx.gpu_type, slice, cross_node);
        if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
          t += comm_->Estimate(CollectiveKind::kAllGather, ctx.gpu_type, bytes,
                               std::max(tp_prev, tp_next));
        }
        bnd_[4 * s + 2 * static_cast<size_t>(po) + static_cast<size_t>(oi)] = 2.0 * t;
      }
    }
  }

  int plans = 1;
  for (size_t s = 0; s < num_stages; ++s) {
    plans *= opt_count_[s];
  }
  best_choice_.resize(num_stages);
  double best_time = 0.0;
  {
    CRIUS_TRACE_SPAN("estimator.assemble");
    const StageChain chain{num_stages,   opt_count_.data(), t_stage_.data(), t_dp_sync_.data(),
                           bnd_.data(), num_microbatches};
    best_time = AssembleChain(chain, best_choice_.data());
  }
  out.plans_assembled = plans;

  // --- Materialize the winning assembled plan -------------------------------
  out.feasible = true;
  out.iter_time = best_time;
  out.plan.gpu_type = ctx.gpu_type;
  out.stage_prefers_tp.resize(num_stages);
  out.stage_tp_range.resize(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    const size_t best = 2 * s + static_cast<size_t>(best_choice_[s]);
    const AssemblyOption& opt = opts_[best];
    const bool is_tp = opt.tp > 1;
    StagePlan sp;
    sp.op_begin = ranges[s].op_begin;
    sp.op_end = ranges[s].op_end;
    sp.gpus = ranges[s].gpus;
    sp.dp = opt.dp;
    sp.tp = opt.tp;
    out.plan.stages.push_back(sp);
    out.stage_prefers_tp[s] = is_tp;

    // Tuning range (§5.2 pruning). With both grid probes available the favor
    // picks the half; when the dp-only probe OOMed, the comparison is void,
    // so profile the half-hybrid point too and favor the winning half.
    const int gpus = ranges[s].gpus;
    const int half_floor = HalfHybridFloor(gpus);
    const int half_ceil = HalfHybridCeil(gpus);
    if (gpus == 1) {
      out.stage_tp_range[s] = {1, 1};
    } else if (opt_count_[s] >= 2) {
      out.stage_tp_range[s] =
          is_tp ? std::make_pair(half_ceil, gpus) : std::make_pair(1, half_floor);
    } else if (!is_tp) {
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
        hybrid_wins = t < t_stage_[best];
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
  return out;
}

}  // namespace crius
