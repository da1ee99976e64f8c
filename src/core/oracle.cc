#include "src/core/oracle.h"

#include <cstring>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace crius {

PerformanceOracle::PerformanceOracle(const Cluster& cluster, uint64_t seed, OracleConfig config)
    : model_(cluster),
      comm_(cluster, seed, config.comm_jitter),
      explorer_(&model_),
      estimator_(&model_, &comm_, seed, config.compute_jitter),
      tuner_(&explorer_) {}

const JobContext& PerformanceOracle::ContextFor(const ModelSpec& spec, GpuType type) const {
  // Doubles hash by bit pattern: specs originate from shared configs, so equal
  // sizes are the same literal and bit-compare equal.
  uint64_t params_bits = 0;
  static_assert(sizeof(params_bits) == sizeof(spec.params_billion));
  std::memcpy(&params_bits, &spec.params_billion, sizeof(params_bits));
  const ContextKey key{static_cast<int>(spec.family), params_bits, spec.global_batch,
                       static_cast<int>(type)};
  return context_cache_
      .GetOrCompute(key, ShardHash(key), [&] { return model_.MakeContext(spec, type); })
      .first;
}

uint64_t PerformanceOracle::ShardHash(const ModelPointKey& key) {
  uint64_t h = std::get<0>(key);
  h = HashCombine(h, static_cast<uint64_t>(std::get<1>(key)));
  h = HashCombine(h, static_cast<uint64_t>(std::get<2>(key)));
  return h;
}

uint64_t PerformanceOracle::ShardHash(const CellPointKey& key) {
  uint64_t h = std::get<0>(key);
  h = HashCombine(h, static_cast<uint64_t>(std::get<1>(key)));
  h = HashCombine(h, static_cast<uint64_t>(std::get<2>(key)));
  h = HashCombine(h, static_cast<uint64_t>(std::get<3>(key)));
  return h;
}

uint64_t PerformanceOracle::ShardHash(const ContextKey& key) {
  uint64_t h = static_cast<uint64_t>(std::get<0>(key));
  h = HashCombine(h, std::get<1>(key));
  h = HashCombine(h, static_cast<uint64_t>(std::get<2>(key)));
  h = HashCombine(h, static_cast<uint64_t>(std::get<3>(key)));
  return h;
}

const std::optional<PlanChoice>& PerformanceOracle::BestAdaptive(const ModelSpec& spec,
                                                                 GpuType type, int ngpus) {
  const JobContext& ctx = ContextFor(spec, type);
  const ModelPointKey key{ctx.model_key, static_cast<int>(type), ngpus};
  const auto [value, miss] = adaptive_cache_.GetOrCompute(key, ShardHash(key), [&] {
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
  return dp_only_cache_
      .GetOrCompute(key, ShardHash(key),
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
  const auto [value, miss] = estimate_cache_.GetOrCompute(
      key, ShardHash(key), [&] { return estimator_.Estimate(ctx, cell); });
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
  const auto [value, miss] = tune_cache_.GetOrCompute(key, ShardHash(key), [&] {
    // EstimateCell re-enters the *estimate* cache, never this one, so the
    // shard-lock order is acyclic (tune shard -> estimate shard).
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

  // Reused per-thread staging buffers (the batch API itself must not churn
  // the heap it exists to eliminate). Thread-local because warm-up fan-outs
  // call EstimateCellBatch concurrently, one batch per pool worker.
  struct BatchScratch {
    std::vector<CellPointKey> keys;
    std::vector<uint64_t> hashes;
    std::vector<size_t> miss_index;
    std::vector<CellPointKey> miss_keys;
    std::vector<uint64_t> miss_hashes;
    std::vector<CellEstimate> computed;
    std::vector<const CellEstimate*> inserted;
  };
  static thread_local BatchScratch scratch;

  // Keys in one pass; contexts resolved once per GPU type present.
  const JobContext* ctx_by_type[kNumGpuTypes] = {};
  scratch.keys.resize(n);
  scratch.hashes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Cell& cell = req.cells[i];
    const int t = static_cast<int>(cell.gpu_type);
    if (ctx_by_type[t] == nullptr) {
      ctx_by_type[t] = &ContextFor(*req.spec, cell.gpu_type);
    }
    scratch.keys[i] = CellPointKey{ctx_by_type[t]->model_key, t, cell.ngpus, cell.nstages};
    scratch.hashes[i] = ShardHash(scratch.keys[i]);
  }

  // Hits: one traversal of the sharded cache, one lock per touched shard.
  estimate_cache_.LookupBatch(scratch.keys.data(), scratch.hashes.data(), n,
                              out->estimates.data());
  scratch.miss_index.clear();
  for (size_t i = 0; i < n; ++i) {
    if (out->estimates[i] == nullptr) {
      scratch.miss_index.push_back(i);
    }
  }
  const size_t misses = scratch.miss_index.size();
  out->hits = n - misses;
  out->misses = misses;

  // Misses: estimate outside any cache lock, fanned across the pool, each
  // worker on its own scratch arena. Deterministic: slot k belongs to
  // miss_index[k] regardless of worker interleaving, and InsertBatch's
  // first-wins keeps cached contents pure functions of their keys even when
  // concurrent batches race on a key.
  if (misses > 0) {
    scratch.miss_keys.resize(misses);
    scratch.miss_hashes.resize(misses);
    scratch.computed.resize(misses);
    scratch.inserted.resize(misses);
    for (size_t k = 0; k < misses; ++k) {
      const size_t i = scratch.miss_index[k];
      scratch.miss_keys[k] = scratch.keys[i];
      scratch.miss_hashes[k] = scratch.hashes[i];
    }
    // The lambda must not touch `scratch` (workers have their own); read the
    // inputs it needs through locals.
    std::vector<size_t>& miss_index = scratch.miss_index;
    std::vector<CellEstimate>& computed = scratch.computed;
    ThreadPool::Global().ParallelFor(misses, [&, this](size_t k) {
      const Cell& cell = req.cells[miss_index[k]];
      const JobContext* ctx = ctx_by_type[static_cast<int>(cell.gpu_type)];
      computed[k] = estimator_.Estimate(*ctx, cell, &ThreadLocalEstimatorScratch());
    });
    estimate_cache_.InsertBatch(scratch.miss_keys.data(), scratch.miss_hashes.data(), misses,
                                scratch.computed.data(), scratch.inserted.data());
    for (size_t k = 0; k < misses; ++k) {
      out->estimates[scratch.miss_index[k]] = scratch.inserted[k];
    }
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
