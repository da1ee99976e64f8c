#include "src/core/oracle.h"

#include <cstring>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"

namespace crius {

namespace {

// Looks up `key`; on a miss, stores compute(). Returns (value, was_miss).
// compute() may insert into other maps: node-based maps keep every
// reference stable across inserts.
template <typename Map, typename Fn>
std::pair<const typename Map::mapped_type&, bool> GetOrCompute(Map& map,
                                                               const typename Map::key_type& key,
                                                               Fn&& compute) {
  auto it = map.find(key);
  if (it != map.end()) {
    return {it->second, false};
  }
  it = map.emplace(key, compute()).first;
  return {it->second, true};
}

}  // namespace

PerformanceOracle::PerformanceOracle(const Cluster& cluster, uint64_t seed, OracleConfig config)
    : model_(cluster),
      comm_(cluster, seed, config.comm_jitter),
      explorer_(&model_),
      estimator_(&model_, &comm_, seed, config.compute_jitter),
      tuner_(&explorer_) {}

const JobContext& PerformanceOracle::ContextFor(const ModelSpec& spec, GpuType type) const {
  // Doubles key by bit pattern: specs originate from shared configs, so equal
  // sizes are the same literal and bit-compare equal.
  uint64_t params_bits = 0;
  static_assert(sizeof(params_bits) == sizeof(spec.params_billion));
  std::memcpy(&params_bits, &spec.params_billion, sizeof(params_bits));
  const ContextKey key{static_cast<int>(spec.family), params_bits, spec.global_batch,
                       static_cast<int>(type)};
  return GetOrCompute(context_cache_, key, [&] { return model_.MakeContext(spec, type); }).first;
}

const std::optional<PlanChoice>& PerformanceOracle::BestAdaptive(const ModelSpec& spec,
                                                                 GpuType type, int ngpus) {
  const JobContext& ctx = ContextFor(spec, type);
  const ModelPointKey key{ctx.model_key, static_cast<int>(type), ngpus};
  const auto [value, miss] = GetOrCompute(adaptive_cache_, key, [&] {
    std::optional<PlanChoice> best;
    if (ngpus >= 1 && IsPowerOfTwo(ngpus)) {
      ExploreResult r = explorer_.FullExplore(ctx, ngpus);
      best = std::move(r.best);
    }
    // Non-power-of-two shapes are not schedulable plans; cached as infeasible.
    return best;
  });
  if (miss) {
    CRIUS_COUNTER_INC("oracle.adaptive_cache_misses");
  } else {
    CRIUS_COUNTER_INC("oracle.adaptive_cache_hits");
  }
  return value;
}

std::optional<double> PerformanceOracle::DpOnlyIterTime(const ModelSpec& spec, GpuType type,
                                                        int ngpus) {
  const JobContext& ctx = ContextFor(spec, type);
  const ModelPointKey key{ctx.model_key, static_cast<int>(type), ngpus};
  return GetOrCompute(dp_only_cache_, key,
                      [&]() -> std::optional<double> {
                        if (ngpus < 1 || !IsPowerOfTwo(ngpus)) {
                          return std::nullopt;
                        }
                        ParallelPlan plan;
                        plan.gpu_type = type;
                        StagePlan sp;
                        sp.op_begin = 0;
                        sp.op_end = ctx.graph->size();
                        sp.gpus = ngpus;
                        sp.dp = ngpus;
                        sp.tp = 1;
                        plan.stages.push_back(sp);
                        const PlanEval eval = model_.Evaluate(ctx, plan);
                        if (!eval.feasible) {
                          return std::nullopt;
                        }
                        return eval.iter_time;
                      })
      .first;
}

const CellEstimate& PerformanceOracle::EstimateCell(const ModelSpec& spec, const Cell& cell) {
  const JobContext& ctx = ContextFor(spec, cell.gpu_type);
  const CellPointKey key{ctx.model_key, static_cast<int>(cell.gpu_type), cell.ngpus,
                         cell.nstages};
  const auto [value, miss] =
      GetOrCompute(estimate_cache_, key, [&] { return estimator_.Estimate(ctx, cell); });
  if (miss) {
    CRIUS_COUNTER_INC("oracle.estimate_cache_misses");
  } else {
    CRIUS_COUNTER_INC("oracle.estimate_cache_hits");
  }
  return value;
}

const TuneResult& PerformanceOracle::TuneCell(const ModelSpec& spec, const Cell& cell) {
  const JobContext& ctx = ContextFor(spec, cell.gpu_type);
  const CellPointKey key{ctx.model_key, static_cast<int>(cell.gpu_type), cell.ngpus,
                         cell.nstages};
  const auto [value, miss] = GetOrCompute(tune_cache_, key, [&] {
    const CellEstimate& estimate = EstimateCell(spec, cell);
    return tuner_.Tune(ctx, cell, estimate);
  });
  if (miss) {
    CRIUS_COUNTER_INC("oracle.tune_cache_misses");
  } else {
    CRIUS_COUNTER_INC("oracle.tune_cache_hits");
  }
  return value;
}

double PerformanceOracle::AdaptiveThroughput(const ModelSpec& spec, GpuType type, int ngpus) {
  const std::optional<PlanChoice>& best = BestAdaptive(spec, type, ngpus);
  if (!best.has_value()) {
    return 0.0;
  }
  return static_cast<double>(spec.global_batch) / best->iter_time;
}

double PerformanceOracle::EstimatedThroughput(const ModelSpec& spec, const Cell& cell) {
  const CellEstimate& est = EstimateCell(spec, cell);
  if (!est.feasible) {
    return 0.0;
  }
  return static_cast<double>(spec.global_batch) / est.iter_time;
}

void PerformanceOracle::EstimateCellBatch(const CellBatchRequest& req, CellBatchResult* out) {
  CRIUS_CHECK(req.spec != nullptr);
  const size_t n = req.count;
  out->estimates.assign(n, nullptr);
  out->throughput.assign(n, 0.0);
  out->hits = 0;
  out->misses = 0;
  if (n == 0) {
    return;
  }

  // Keys in one pass; contexts resolved once per GPU type present.
  const JobContext* ctx_by_type[kNumGpuTypes] = {};
  batch_keys_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Cell& cell = req.cells[i];
    const int t = static_cast<int>(cell.gpu_type);
    if (ctx_by_type[t] == nullptr) {
      ctx_by_type[t] = &ContextFor(*req.spec, cell.gpu_type);
    }
    batch_keys_[i] = CellPointKey{ctx_by_type[t]->model_key, t, cell.ngpus, cell.nstages};
  }

  // Hits: one lookup pass over the whole batch before anything is inserted,
  // so a Cell repeated within the batch counts as a miss each time.
  batch_miss_index_.clear();
  for (size_t i = 0; i < n; ++i) {
    const auto it = estimate_cache_.find(batch_keys_[i]);
    if (it != estimate_cache_.end()) {
      out->estimates[i] = &it->second;
    } else {
      batch_miss_index_.push_back(i);
    }
  }
  out->misses = batch_miss_index_.size();
  out->hits = n - out->misses;

  // Misses: estimate and insert in batch order (a repeated Cell keeps its
  // first estimate).
  for (const size_t i : batch_miss_index_) {
    const Cell& cell = req.cells[i];
    const JobContext& ctx = *ctx_by_type[static_cast<int>(cell.gpu_type)];
    out->estimates[i] =
        &estimate_cache_.try_emplace(batch_keys_[i], estimator_.Estimate(ctx, cell)).first->second;
  }

  const double global_batch = static_cast<double>(req.spec->global_batch);
  for (size_t i = 0; i < n; ++i) {
    const CellEstimate& est = *out->estimates[i];
    out->throughput[i] = est.feasible ? global_batch / est.iter_time : 0.0;
  }

  CRIUS_COUNTER_ADD("oracle.batch_hits", static_cast<int64_t>(out->hits));
  CRIUS_COUNTER_ADD("oracle.batch_misses", static_cast<int64_t>(out->misses));
  // Historical sum metric; dashboards key on it, keep it equal to hits+misses.
  CRIUS_COUNTER_ADD("oracle.batch_estimates", static_cast<int64_t>(n));
}

}  // namespace crius
