// Agile Cell estimation by parallelism assembly (§5.1, Fig. 9).
//
// With a Cell's stages fixed, Crius profiles every stage exactly twice on a
// single device -- once data-parallel-only, once tensor-parallel-only -- and
// assembles those stage profiles into candidate plans, injecting
// offline-profiled communication operators between stages. The best of all
// 2^Ns combinations is the Cell's estimate, and each stage's winning side is
// that stage's "parallelism favor", which later prunes tuning (§5.2).
//
// This is grid sampling, not optimum prediction: the true best plan may be a
// hybrid the grid misses, and the profiles carry measurement jitter plus
// interpolation error -- exactly the accuracy/overhead trade the paper
// evaluates in Fig. 12.
//
// Chain assembly (DESIGN.md §14): instead of visiting every combination, an
// exact chain DP (AssembleChain) finds the same best plan and the same double
// in time polynomial in Ns. The original enumeration lives on in
// tests/estimator_reference.cc as the golden oracle for the bit-identity test
// (tests/estimator_batch_test.cc).

#ifndef SRC_CORE_ESTIMATOR_H_
#define SRC_CORE_ESTIMATOR_H_

#include <limits>
#include <vector>

#include "src/core/cell.h"
#include "src/core/comm_profile.h"
#include "src/core/compute_profile.h"
#include "src/parallel/plan.h"

namespace crius {

struct CellEstimate {
  // False iff some stage fits in GPU memory under neither dp-only nor tp-only.
  bool feasible = false;
  // Estimated iteration latency of the best assembled plan.
  double iter_time = std::numeric_limits<double>::infinity();
  // The best assembled plan (every stage dp-only or tp-only).
  ParallelPlan plan;
  // Per-stage parallelism favor: true if tensor parallelism won (§5.2).
  std::vector<bool> stage_prefers_tp;
  // Per-stage tuning range [tp_min, tp_max] derived from the favor (Fig. 11):
  // a dp-favoring stage tunes in [1, half-hybrid], a tp-favoring one in
  // [half-hybrid, N]. When memory kills the dp-only probe, the estimator
  // profiles the half-hybrid point on the single device as well and favors
  // the winning half -- the favor must be a comparison, not a memory artifact.
  std::vector<std::pair<int, int>> stage_tp_range;
  // Single-GPU seconds spent profiling (the Fig. 12b cost).
  double profile_gpu_seconds = 0.0;
  // Number of combinations the assembly covers: the product of the per-stage
  // option counts (2^Ns modulo OOM-dropped options). The chain DP covers them
  // all without visiting each one.
  int plans_assembled = 0;
};

// The Fig. 9 assembly problem for one Cell. Stage s offers opt_count[s]
// (1 or 2) options. Option o of stage s has per-microbatch time
// t_stage[2*s + o] and gradient-sync time t_dp_sync[2*s + o]; moving from
// option po of stage s-1 into option o of stage s costs
// boundary[4*s + 2*po + o] (s >= 1).
struct StageChain {
  size_t num_stages = 0;
  const int* opt_count = nullptr;
  const double* t_stage = nullptr;
  const double* t_dp_sync = nullptr;
  const double* boundary = nullptr;
  int num_microbatches = 1;
};

// Returns the smallest plan total over every combination of one option per
// stage, where a plan's total is
//   ((S + (B-1)*max t_stage) + f*max t_dp_sync) + PerfModel::kIterOverhead,
// S adds t_stage and then the boundary term stage by stage, B is
// num_microbatches and f is PerfModel::kDpSyncExposedFraction. Writes the
// winning option per stage to choice[0, num_stages): among equal totals, the
// combination a depth-first enumeration (stage 0 outermost, highest option
// index first) reaches first.
double AssembleChain(const StageChain& chain, int* choice);

class CellEstimator {
 public:
  // `compute_jitter` overrides the single-device profiler's measurement
  // scatter (noise-ablation experiments sweep it).
  CellEstimator(const PerfModel* model, const CommProfile* comm, uint64_t seed,
                double compute_jitter = SingleDeviceProfiler::kMeasureJitter);

  // Estimates `cell` for the job in `ctx`. ctx.gpu_type must equal
  // cell.gpu_type. An estimator belongs to one thread, like the oracle that
  // owns it.
  CellEstimate Estimate(const JobContext& ctx, const Cell& cell) const;

 private:
  const PerfModel* model_;
  const CommProfile* comm_;
  SingleDeviceProfiler profiler_;

  // One profiled stage option (dp-only or tp-only); its times live in the
  // chain arrays at the same index.
  struct AssemblyOption {
    int dp = 1;
    int tp = 1;
  };
  // Estimate's per-call arrays, resized on each call (StageChain documents
  // their layout); mutable because reusing their capacity is invisible to
  // callers.
  mutable std::vector<AssemblyOption> opts_;
  mutable std::vector<int> opt_count_;
  mutable std::vector<double> t_stage_;
  mutable std::vector<double> t_dp_sync_;
  mutable std::vector<double> bnd_;
  mutable std::vector<int> best_choice_;
};

}  // namespace crius

#endif  // SRC_CORE_ESTIMATOR_H_
