// Golden reference for CellEstimator::Estimate (DESIGN.md §14): the original
// Fig. 9 assembly, which enumerates all 2^Ns dp-only/tp-only combinations with
// per-plan structs on an explicit DFS stack. The chain-DP assembly in
// src/core/estimator.cc must reproduce its CellEstimates bit for bit
// (tests/estimator_batch_test.cc). Exponential by design; tests only.

#ifndef TESTS_ESTIMATOR_REFERENCE_H_
#define TESTS_ESTIMATOR_REFERENCE_H_

#include "src/core/comm_profile.h"
#include "src/core/compute_profile.h"
#include "src/core/estimator.h"

namespace crius {

// Estimates `cell` for the job in `ctx` exactly as the original enumeration
// did. `profiler` must carry the seed and jitter of the CellEstimator under
// test; it partitions with PartitionStages directly, not the PerfModel memo.
CellEstimate EstimateCellReference(const CommProfile& comm, const SingleDeviceProfiler& profiler,
                                   const JobContext& ctx, const Cell& cell);

}  // namespace crius

#endif  // TESTS_ESTIMATOR_REFERENCE_H_
