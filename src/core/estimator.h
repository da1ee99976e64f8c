// Agile Cell estimation by parallelism assembly (§5.1, Fig. 9).
//
// With a Cell's stages fixed, Crius profiles every stage exactly twice on a
// single device -- once data-parallel-only, once tensor-parallel-only -- and
// assembles all 2^Ns combinations of those stage profiles into candidate
// plans, injecting offline-profiled communication operators between stages.
// The best assembled plan's latency is the Cell's estimate, and each stage's
// winning side is that stage's "parallelism favor", which later prunes tuning
// (§5.2).
//
// This is grid sampling, not optimum prediction: the true best plan may be a
// hybrid the grid misses, and the profiles carry measurement jitter plus
// interpolation error -- exactly the accuracy/overhead trade the paper
// evaluates in Fig. 12.
//
// Memory layout (DESIGN.md §14): the assembly inner loop runs over SoA arrays
// of per-plan stage sums / maxima carved from the estimator's scratch arena,
// so a steady-state Estimate call performs no heap allocation and the final
// min-reduction is a plain vectorizable scan. The pre-refactor recursive
// assembly survives as EstimateReference, the golden oracle for the
// bit-identity test (tests/estimator_batch_test.cc).

#ifndef SRC_CORE_ESTIMATOR_H_
#define SRC_CORE_ESTIMATOR_H_

#include <limits>
#include <vector>

#include "src/core/cell.h"
#include "src/core/comm_profile.h"
#include "src/core/compute_profile.h"
#include "src/parallel/plan.h"
#include "src/util/arena.h"

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
  // Number of assembled plans considered (2^Ns modulo OOM-dropped options).
  int plans_assembled = 0;
};

class CellEstimator {
 public:
  // `compute_jitter` overrides the single-device profiler's measurement
  // scatter (noise-ablation experiments sweep it).
  CellEstimator(const PerfModel* model, const CommProfile* comm, uint64_t seed,
                double compute_jitter = SingleDeviceProfiler::kMeasureJitter);

  // Estimates `cell` for the job in `ctx`. ctx.gpu_type must equal
  // cell.gpu_type. All per-call assembly scratch comes from the estimator's
  // arena (reset on entry); steady-state calls allocate nothing on the heap.
  // An estimator belongs to one thread, like the oracle that owns it.
  CellEstimate Estimate(const JobContext& ctx, const Cell& cell) const;

  // Pre-refactor assembly (per-plan structs on an explicit DFS stack), kept
  // as the golden reference: the SoA path must reproduce its CellEstimates
  // bit for bit (tests/estimator_batch_test.cc). Not used on any hot path.
  CellEstimate EstimateReference(const JobContext& ctx, const Cell& cell) const;

 private:
  const PerfModel* model_;
  const CommProfile* comm_;
  SingleDeviceProfiler profiler_;
  // Estimate's scratch; mutable because reusing it is invisible to callers
  // (every estimate resets it).
  mutable Arena arena_;
};

}  // namespace crius

#endif  // SRC_CORE_ESTIMATOR_H_
