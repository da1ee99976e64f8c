#include "src/parallel/explorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/hw/interconnect.h"
#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/trace.h"

namespace crius {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One per-stage candidate with its precomputed evaluation.
struct StageOption {
  int dp = 1;
  int tp = 1;
  StageEval eval;
};

// Precomputed boundary-transfer time between adjacent stages for a given
// (producer tp, consumer tp) pair; mirrors PerfModel::Evaluate's internals so
// enumeration can assemble totals incrementally.
double BoundaryTime(const JobContext& ctx, const OpGraph& g, const StageRange& next,
                    int tp_prev, int tp_next, int gpu_offset, double microbatch) {
  const double bytes = g.BoundaryBytes(next.op_begin) * microbatch;
  const bool cross_node = (gpu_offset % ctx.topo.gpus_per_node) == 0;
  const double slice = bytes / static_cast<double>(std::max(1, tp_prev));
  double t = SendRecvTime(ctx.topo, slice, cross_node);
  if (tp_next != tp_prev && std::max(tp_prev, tp_next) > 1) {
    t += AllGatherTime(ctx.topo, bytes, std::max(tp_prev, tp_next));
  }
  return 2.0 * t;
}

// Partial chain state during enumeration / beam search.
struct ChainState {
  double sum = 0.0;       // sum of stage microbatch times + boundary times
  double max_stage = 0.0;
  double max_sync = 0.0;
  int last_tp = 1;
  std::vector<int> choice;  // option index per stage decided so far

  double Bound(int num_microbatches) const {
    return sum + static_cast<double>(num_microbatches - 1) * max_stage;
  }
};

}  // namespace

Explorer::Explorer(const PerfModel* model) : model_(model) {
  CRIUS_CHECK(model != nullptr);
}

ExploreResult Explorer::ExploreWithinStages(const JobContext& ctx, int ngpus, int nstages,
                                            const StageOptionFilter& filter) const {
  CRIUS_CHECK(ctx.graph != nullptr);
  CRIUS_CHECK(IsPowerOfTwo(ngpus));
  CRIUS_TRACE_SPAN("explorer.explore");
  CRIUS_COUNTER_INC("explorer.explorations");
  const OpGraph& g = *ctx.graph;
  ExploreResult result;
  if (nstages > std::min<int>(ngpus, static_cast<int>(g.size()))) {
    return result;
  }

  const std::vector<StageRange>& ranges = model_->Stages(ctx, ngpus, nstages);
  const int num_microbatches = 4 * nstages;
  const double microbatch =
      static_cast<double>(ctx.global_batch) / static_cast<double>(num_microbatches);

  // Per-stage candidate lists (memory-feasible (dp, tp) splits).
  std::vector<std::vector<StageOption>> options(ranges.size());
  double combos = 1.0;
  for (size_t s = 0; s < ranges.size(); ++s) {
    for (const PowerOfTwoSplit& split : PowerOfTwoSplits(ranges[s].gpus)) {
      const int dp = static_cast<int>(split.d);
      const int tp = static_cast<int>(split.t);
      if (filter && !filter(static_cast<int>(s), dp, tp)) {
        continue;
      }
      StageOption opt;
      opt.dp = dp;
      opt.tp = tp;
      opt.eval = model_->EvalStage(ctx, ranges[s], dp, tp, nstages);
      if (!opt.eval.fits) {
        continue;
      }
      options[s].push_back(opt);
    }
    if (options[s].empty()) {
      return result;  // some stage cannot fit in memory at all
    }
    combos *= static_cast<double>(options[s].size());
  }

  // GPU offsets of each stage for boundary cross-node decisions.
  std::vector<int> offsets(ranges.size(), 0);
  for (size_t s = 1; s < ranges.size(); ++s) {
    offsets[s] = offsets[s - 1] + ranges[s - 1].gpus;
  }

  auto finish = [&](const ChainState& st) -> double {
    return st.sum + static_cast<double>(num_microbatches - 1) * st.max_stage +
           PerfModel::kDpSyncExposedFraction * st.max_sync + PerfModel::kIterOverhead;
  };

  auto extend = [&](const ChainState& st, size_t s, size_t oi) {
    const StageOption& opt = options[s][oi];
    ChainState next = st;
    next.sum += opt.eval.t_microbatch;
    if (s > 0) {
      next.sum += BoundaryTime(ctx, g, ranges[s], st.last_tp, opt.tp, offsets[s], microbatch);
    }
    next.max_stage = std::max(next.max_stage, opt.eval.t_microbatch);
    next.max_sync = std::max(next.max_sync, opt.eval.t_dp_sync);
    next.last_tp = opt.tp;
    next.choice.push_back(static_cast<int>(oi));
    return next;
  };

  double best_time = kInf;
  std::vector<int> best_choice;

  if (combos <= static_cast<double>(kExhaustiveLimit)) {
    // Depth-first exhaustive enumeration.
    std::vector<ChainState> stack;
    ChainState init;
    stack.push_back(init);
    while (!stack.empty()) {
      ChainState st = std::move(stack.back());
      stack.pop_back();
      const size_t s = st.choice.size();
      if (s == ranges.size()) {
        const double t = finish(st);
        if (t < best_time) {
          best_time = t;
          best_choice = st.choice;
        }
        continue;
      }
      for (size_t oi = 0; oi < options[s].size(); ++oi) {
        ChainState next = extend(st, s, oi);
        if (next.Bound(num_microbatches) < best_time) {
          stack.push_back(std::move(next));
        }
      }
    }
    // Physical full-space profiling runs *every* combination -- the in-memory
    // branch-and-bound shortcut above finds the same optimum, but hardware
    // exploration has no oracle bound, so the cost accounting charges all of
    // them (§2.1's exhaustive search).
    result.plans_evaluated = static_cast<int>(combos);
  } else {
    // Deterministic beam search over the stage chain.
    std::vector<ChainState> beam;
    beam.push_back(ChainState{});
    for (size_t s = 0; s < ranges.size(); ++s) {
      std::vector<ChainState> expanded;
      expanded.reserve(beam.size() * options[s].size());
      for (const ChainState& st : beam) {
        for (size_t oi = 0; oi < options[s].size(); ++oi) {
          expanded.push_back(extend(st, s, oi));
        }
      }
      result.plans_evaluated += static_cast<int>(expanded.size());
      std::stable_sort(expanded.begin(), expanded.end(),
                       [&](const ChainState& a, const ChainState& b) {
                         return a.Bound(num_microbatches) < b.Bound(num_microbatches);
                       });
      if (expanded.size() > static_cast<size_t>(kBeamWidth)) {
        expanded.resize(static_cast<size_t>(kBeamWidth));
      }
      beam = std::move(expanded);
    }
    for (const ChainState& st : beam) {
      const double t = finish(st);
      if (t < best_time) {
        best_time = t;
        best_choice = st.choice;
      }
    }
  }

  CRIUS_CHECK_MSG(best_choice.size() == ranges.size(), "enumeration lost the optimum");

  // Materialize the winning plan and account for its profiling cost exactly.
  ParallelPlan plan;
  plan.gpu_type = ctx.gpu_type;
  for (size_t s = 0; s < ranges.size(); ++s) {
    const StageOption& opt = options[s][static_cast<size_t>(best_choice[s])];
    StagePlan sp;
    sp.op_begin = ranges[s].op_begin;
    sp.op_end = ranges[s].op_end;
    sp.gpus = ranges[s].gpus;
    sp.dp = opt.dp;
    sp.tp = opt.tp;
    plan.stages.push_back(sp);
  }
  const PlanEval exact = model_->Evaluate(ctx, plan);
  CRIUS_CHECK(exact.feasible);

  result.best = PlanChoice{std::move(plan), exact.iter_time};

  // Hardware cost: every evaluated candidate would have been compiled and
  // timed for kProfileIters iterations on all ngpus. Approximate each
  // candidate's runtime by the winner's (they are within a small factor).
  result.profile_gpu_seconds =
      static_cast<double>(std::min(result.plans_evaluated, kPhysicalProfileCap)) *
      (PerfModel::kProfileSetupSeconds +
       static_cast<double>(PerfModel::kProfileIters) * exact.iter_time) *
      static_cast<double>(ngpus);
  CRIUS_HISTOGRAM_RECORD("explorer.plans_enumerated",
                         static_cast<double>(result.plans_evaluated));
  return result;
}

ExploreResult Explorer::FullExplore(const JobContext& ctx, int ngpus) const {
  CRIUS_TRACE_SPAN("explorer.full_explore");
  ExploreResult result;
  for (int nstages : CandidateStageCounts(*ctx.graph, ngpus)) {
    ExploreResult r = ExploreWithinStages(ctx, ngpus, nstages);
    result.plans_evaluated += r.plans_evaluated;
    result.profile_gpu_seconds += r.profile_gpu_seconds;
    if (r.best.has_value() &&
        (!result.best.has_value() || r.best->iter_time < result.best->iter_time)) {
      result.best = std::move(r.best);
    }
  }
  return result;
}

}  // namespace crius
