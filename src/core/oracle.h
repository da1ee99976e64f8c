// PerformanceOracle: one-stop, memoized access to every performance quantity
// the schedulers and the simulator need.
//
//   * BestAdaptive   -- ground-truth optimal plan from full adaptive-
//                       parallelism exploration (what a scheduled job actually
//                       runs with; §8.1 enables Alpa-style adaptive parallelism
//                       for every scheduler's jobs).
//   * DpOnlyIterTime -- the data-parallel-only iteration time baselines profile
//                       and schedule by (§8.1: baselines "schedule jobs with
//                       data profiled from data parallelism").
//   * EstimateCell   -- Crius's agile Cell estimate (§5.1).
//   * TuneCell       -- Crius's Cell-guided tuned plan (§5.2).
//
// Trace-scale simulations query the same (model, GPU type, count) points
// millions of times; everything is cached in plain maps. Every cached
// quantity is a pure function of its key.
//
// Threading contract: an oracle belongs to one thread. Nothing in it is
// locked -- the caches, the batch staging buffers and the estimator's scratch
// vectors are plain members -- so callers that want parallelism build one
// oracle per thread (ext_robustness does, one per seed).
//
// Batch-first API (DESIGN.md §14): rankers hand a job's whole candidate Cell
// list to EstimateCellBatch, which resolves cache hits in one lookup pass,
// then estimates and inserts the misses, and writes results into
// caller-owned SoA buffers (CellBatchResult). The scalar entry points survive
// as conveniences for one-off queries and remain the units the batch path is
// defined in terms of.

#ifndef SRC_CORE_ORACLE_H_
#define SRC_CORE_ORACLE_H_

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "src/core/cell.h"
#include "src/core/comm_profile.h"
#include "src/core/estimator.h"
#include "src/core/tuner.h"
#include "src/parallel/explorer.h"

namespace crius {

// Knobs for the noise-ablation experiments (DESIGN.md §5): how much
// measurement scatter the estimator's inputs carry.
struct OracleConfig {
  double compute_jitter = SingleDeviceProfiler::kMeasureJitter;
  double comm_jitter = CommProfile::kMeasureJitter;
};

// One job's candidate Cells, by pointer into a caller-owned array. The spec
// and cells must stay alive for the duration of the call.
struct CellBatchRequest {
  const ModelSpec* spec = nullptr;
  const Cell* cells = nullptr;
  size_t count = 0;
};

// Caller-owned SoA result buffers, resized by EstimateCellBatch and intended
// to be reused across calls (steady-state calls reallocate nothing).
// estimates[i] points at the cached CellEstimate for cells[i] (valid for the
// oracle's lifetime); throughput[i] is the §6 ranking quantity: samples/s of
// the best assembled plan, 0 when the Cell is infeasible.
struct CellBatchResult {
  std::vector<const CellEstimate*> estimates;
  std::vector<double> throughput;
  // How the batch split against the estimate cache (oracle.batch_hits /
  // oracle.batch_misses report the same split globally).
  size_t hits = 0;
  size_t misses = 0;
};

class PerformanceOracle {
 public:
  PerformanceOracle(const Cluster& cluster, uint64_t seed, OracleConfig config = {});

  const PerfModel& perf_model() const { return model_; }
  const Explorer& explorer() const { return explorer_; }
  const CommProfile& comm_profile() const { return comm_; }

  // Evaluation context for (spec, type), cached per model/type pair: repeat
  // callers skip the spec-key string hashing and op-graph lookup MakeContext
  // performs. The reference stays valid for the oracle's lifetime.
  const JobContext& ContextFor(const ModelSpec& spec, GpuType type) const;

  // Ground-truth best adaptive-parallelism plan; nullopt if the job cannot fit
  // on `ngpus` GPUs of `type` under any plan.
  const std::optional<PlanChoice>& BestAdaptive(const ModelSpec& spec, GpuType type, int ngpus);

  // Data-parallel-only iteration time (1 stage, dp = ngpus); nullopt on OOM.
  std::optional<double> DpOnlyIterTime(const ModelSpec& spec, GpuType type, int ngpus);

  // Crius Cell estimate (cached per model/cell).
  const CellEstimate& EstimateCell(const ModelSpec& spec, const Cell& cell);

  // Crius tuned plan for a scheduled Cell (cached).
  const TuneResult& TuneCell(const ModelSpec& spec, const Cell& cell);

  // Throughput (samples/s) of the ground-truth best plan; 0 if infeasible.
  double AdaptiveThroughput(const ModelSpec& spec, GpuType type, int ngpus);

  // Throughput (samples/s) of the Crius-estimated best assembled plan for a
  // cell; 0 if infeasible. This is the number Crius's scheduler ranks by.
  double EstimatedThroughput(const ModelSpec& spec, const Cell& cell);

  // Batched what-if estimation for one job's candidate Cells: a lookup pass
  // for the hits, then the misses are estimated and inserted in order,
  // results in caller-owned SoA buffers. Every ranking fan-out (scheduler,
  // reconfig policy, benches) goes through here.
  void EstimateCellBatch(const CellBatchRequest& req, CellBatchResult* out);

 private:
  using ModelPointKey = std::tuple<uint64_t, int, int>;        // (model, type, ngpus)
  using CellPointKey = std::tuple<uint64_t, int, int, int>;    // (model, type, ngpus, nstages)
  // (family, params bit pattern, global batch, type) -- everything MakeContext
  // reads from the spec, without the string key construction.
  using ContextKey = std::tuple<int, uint64_t, int64_t, int>;

  PerfModel model_;
  CommProfile comm_;
  Explorer explorer_;
  CellEstimator estimator_;
  CellTuner tuner_;

  // Node-based maps: references handed out stay valid for the oracle's
  // lifetime. mutable: ContextFor is logically const (pure, memoized).
  mutable std::map<ContextKey, JobContext> context_cache_;
  std::map<ModelPointKey, std::optional<PlanChoice>> adaptive_cache_;
  std::map<ModelPointKey, std::optional<double>> dp_only_cache_;
  std::map<CellPointKey, CellEstimate> estimate_cache_;
  std::map<CellPointKey, TuneResult> tune_cache_;

  // EstimateCellBatch staging, reused across calls so the batch path does
  // not churn the heap.
  std::vector<CellPointKey> batch_keys_;
  std::vector<size_t> batch_miss_index_;
};

}  // namespace crius

#endif  // SRC_CORE_ORACLE_H_
