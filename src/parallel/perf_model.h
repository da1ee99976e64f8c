// Analytical training-performance model: the ground truth of the simulated
// hardware (DESIGN.md §2).
//
// Given a parallelism plan on a GPU type, the model produces the exact
// per-iteration latency and per-GPU memory footprint, combining:
//   * compute  -- FLOPs / (tp * peak * efficiency); efficiency loses to tensor
//                 sharding (kernel splitting) and to small per-replica batches
//                 (the Fig. 4a "performance ceiling").
//   * comm     -- collective costs from src/hw/interconnect.h: tensor-parallel
//                 all-reduces, MoE all-to-all, data-parallel gradient sync,
//                 and pipeline-boundary transfers (send/recv + resharding
//                 all-gathers, Fig. 8).
//   * pipeline -- the §5.1 GPipe formula: first microbatch traverses every
//                 stage, the remaining B-1 are dominated by the slowest stage
//                 with boundary communication overlapped.
//
// "Measured" / "direct profiling" everywhere in this repository means an exact
// evaluation by this model; Crius's estimator (src/core) sees only noisy
// single-device profiles and interpolated communication tables.

#ifndef SRC_PARALLEL_PERF_MODEL_H_
#define SRC_PARALLEL_PERF_MODEL_H_

#include <array>
#include <map>
#include <tuple>
#include <vector>

#include "src/hw/cluster.h"
#include "src/model/models.h"
#include "src/util/units.h"
#include "src/parallel/plan.h"
#include "src/parallel/stage_partition.h"

namespace crius {

// Everything the model needs to evaluate plans for one (job, GPU type) pair.
struct JobContext {
  const OpGraph* graph = nullptr;
  ModelFamily family = ModelFamily::kBert;
  int64_t global_batch = 256;
  GpuType gpu_type = GpuType::kA100;
  GroupTopology topo;
  // Stable identity of the model spec; keys profiling-noise streams & caches.
  uint64_t model_key = 0;
};

// Per-stage evaluation under a (dp, tp) split.
struct StageEval {
  // Compute + tensor-parallel + all-to-all time for one microbatch.
  double t_microbatch = 0.0;
  // Compute-only portion, including the distributed straggler factor.
  double t_compute = 0.0;
  // Compute time of one shard on an isolated single device (what
  // distributed-equivalent compilation + CUPTI timing observes, §5.1).
  double t_compute_single = 0.0;
  // Gradient all-reduce time per iteration.
  double t_dp_sync = 0.0;
  // Per-GPU memory footprint.
  double mem_bytes = 0.0;
  bool fits = false;
};

// Whole-plan evaluation.
struct PlanEval {
  double iter_time = 0.0;  // seconds per training iteration
  double max_stage_mem = 0.0;
  bool feasible = false;  // false iff some stage exceeds GPU memory
};

class PerfModel {
 public:
  // Model constants (documented effects; see DESIGN.md §5).
  static constexpr double kTrainFlopsMult = 3.0;     // fwd + ~2x bwd
  static constexpr double kTpEffLossPerDoubling = 0.045;
  // Distributed execution runs slower than the sum of its single-device parts
  // (kernel desynchronization, stragglers, interference); single-device
  // profiling cannot observe this, making it a systematic estimator error.
  static constexpr double kStragglerPerDoubling = 0.015;
  static constexpr double kOptimStateMult = 8.0;     // 16 B/param over fp16 storage
  static constexpr double kWorkspaceBytes = 0.75 * kGiB;
  static constexpr double kMemLimitFraction = 0.92;
  static constexpr double kDpSyncExposedFraction = 0.5;  // rest overlaps backward
  static constexpr double kIterOverhead = 8e-3;      // optimizer + launch, seconds

  // Builds a model over the cluster's per-type topologies.
  explicit PerfModel(const Cluster& cluster);

  // Context for evaluating `spec` on `type` GPUs. Requires the cluster to have
  // that type.
  JobContext MakeContext(const ModelSpec& spec, GpuType type) const;

  // Evaluates one stage (operator range `range`, GPU count range.gpus) under
  // the given split. Requires dp * tp == range.gpus. `num_microbatches` 0
  // selects the GPipe default of 4 x nstages.
  StageEval EvalStage(const JobContext& ctx, const StageRange& range, int dp, int tp,
                      int nstages, int num_microbatches = 0) const;

  // Exact end-to-end evaluation of a full plan.
  PlanEval Evaluate(const JobContext& ctx, const ParallelPlan& plan) const;

  // Boundary transfer time for one microbatch of `bytes` activations flowing
  // from a stage with tensor degree tp_prev into one with tp_next (forward
  // activations + backward gradients; resharding all-gather when the degrees
  // differ -- Fig. 8's send/recv vs all_gather connectors).
  double BoundaryTransferTime(const JobContext& ctx, double bytes, int tp_prev, int tp_next,
                              bool cross_node) const;

  // GPU-seconds consumed by directly profiling `plan` on real hardware
  // (setup/compilation plus kProfileIters measured iterations on every GPU).
  // This is the paper's "Measured"/"direct profiling" cost (Fig. 12b).
  static constexpr double kProfileSetupSeconds = 15.0;
  static constexpr int kProfileIters = 3;
  double DirectProfileGpuSeconds(const JobContext& ctx, const ParallelPlan& plan) const;

  bool HasType(GpuType type) const { return has_type_[static_cast<int>(type)]; }

  // PartitionStages(*ctx.graph, ngpus, nstages), memoized per (graph, ngpus,
  // nstages). The partition is a pure function of its key and every graph
  // comes from GetOpGraph, so entries stay valid for the process lifetime.
  // The reference is stable across calls. Like PerformanceOracle::ContextFor,
  // a model's memo belongs to one thread.
  const std::vector<StageRange>& Stages(const JobContext& ctx, int ngpus, int nstages) const;

 private:
  using StagesKey = std::tuple<const OpGraph*, int, int>;

  std::array<GroupTopology, kNumGpuTypes> topo_{};
  std::array<bool, kNumGpuTypes> has_type_{};
  // mutable: Stages is logically const (pure, memoized).
  mutable std::map<StagesKey, std::vector<StageRange>> stages_cache_;
};

// Degraded-mode iteration time: the realized latency of a plan whose slowest
// node advertises straggler factor `slowdown` (>= 1.0). Training is bulk-
// synchronous, so every pipeline flush and gradient sync waits for the
// straggler and the whole iteration stretches by its factor.
double DegradedIterTime(double iter_time, double slowdown);

// Kernel efficiency at `samples` per tensor-parallel group per microbatch.
double BatchUtilization(ModelFamily family, double samples);

// Tensor-sharding kernel efficiency at degree tp.
double TpEfficiency(int tp);

}  // namespace crius

#endif  // SRC_PARALLEL_PERF_MODEL_H_
