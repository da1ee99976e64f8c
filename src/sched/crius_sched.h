// Crius's Cell-based scheduler (§6, Algorithm 1).
//
// Every scheduling round the scheduler rebuilds a virtual placement of all
// active jobs from Cells: running jobs start from their current Cell, queued
// jobs are placed FIFO into free capacity, and when capacity is short the
// scheduler searches up to `search_depth` resource-scaling moves (downscaling
// running jobs or exchanging their GPU type) that maximize total estimated
// normalized throughput. Released capacity is then fed back to running jobs
// (the Algorithm-1 "extra scheduling"). Placement decisions rank Cells by
// Crius's agile estimates; the tuned plan is only computed for Cells that are
// actually scheduled.
//
// Ablation flags reproduce §8.6's variants: disabling adaptivity scaling pins
// every job to its requested GPU count (Crius-NA); disabling heterogeneity
// scaling pins it to its requested GPU type (Crius-NH). The deadline-aware
// variant (Crius-DDL, §8.5) admission-drops jobs that cannot meet their
// deadline and refuses scaling moves that would break an admitted deadline.
//
// Threading contract: a scheduler belongs to one thread, like the oracle it
// ranks with. Its memo and the pass scratch below are plain members, and
// every round -- warm-up and every placement pass -- runs on the caller's
// thread.

#ifndef SRC_SCHED_CRIUS_SCHED_H_
#define SRC_SCHED_CRIUS_SCHED_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/cell.h"
#include "src/power/power.h"
#include "src/sched/placement_index.h"
#include "src/sched/scheduler.h"

namespace crius {

// The cluster objective Crius ranks scheduling choices by (§6: "Crius is easy
// to adapt to other scheduling objectives"): one weight vector. A Cell's rank
// is throughput*score - energy*kW - fragmentation*stranding left behind, with
// zero-weight terms skipped; the default (1,0,0,0) is the paper's sum of
// normalized estimated throughput. A fairness weight makes the upscale phase
// water-fill (Themis-style max-min): spare capacity goes to the placed job
// with the lowest normalized throughput first. Crius-Fair is (1,0,0,1).
struct CriusObjective {
  double throughput = 1.0;
  double energy = 0.0;
  double fragmentation = 0.0;
  double fairness = 0.0;

  // "throughput,energy,fragmentation,fairness", e.g. "1,0.5,0.2,0".
  std::string ToString() const;
  // Parses ToString's format: four finite non-negative numbers.
  // std::nullopt on malformed input.
  static std::optional<CriusObjective> Parse(const std::string& spec);
};

// Order in which queued jobs are offered placement. The paper's Algorithm 1
// is FIFO; §6 notes solver-style enhancements are orthogonal -- kBestOfAll is
// a cheap instance: run every ordering virtually and keep the one the
// objective scores highest.
enum class CriusPlacementOrder : uint8_t {
  kFifo,           // arrival order (the paper's policy)
  kScoreDensity,   // highest estimated-throughput-per-GPU first
  kSmallestFirst,  // fewest requested GPUs first
  kBestOfAll,      // evaluate all of the above, keep the best-scoring outcome
};

struct CriusConfig {
  // Maximum job-scaling moves explored per scheduling choice (Fig. 21).
  int search_depth = 3;
  // Ranking objective for placement, upscale and pass comparison.
  CriusObjective objective{};
  // Queued-job placement order (deadline-aware mode always uses EDF).
  CriusPlacementOrder placement_order = CriusPlacementOrder::kFifo;
  // GPU-count scaling (§8.6 adaptivity scaling; false = Crius-NA).
  bool adaptivity_scaling = true;
  // GPU-type scaling (§8.6 heterogeneity scaling; false = Crius-NH).
  bool heterogeneity_scaling = true;
  // Deadline-aware policy (§8.5; Crius-DDL).
  bool deadline_aware = false;
  // Launch later queued jobs while a larger one pends (§6.1).
  bool opportunistic = true;
  // Upper bound on upscale moves applied per round.
  int max_upscale_moves = 12;
};

class CriusScheduler : public Scheduler {
 public:
  CriusScheduler(PerformanceOracle* oracle, CriusConfig config);

  std::string name() const override;

  ScheduleDecision Schedule(const RoundContext& round) override;

  // §8.2: Cells are profiled on one GPU per type, in parallel across types,
  // bounded by 30 minutes.
  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override;

  const CriusConfig& config() const { return config_; }

 private:
  // The scored Cell candidates for `job` under the ablation flags: a pure
  // function of (job, cluster health). Reads no scheduler state besides the
  // oracle; writes only the candidate/batch scratch.
  JobCells ComputeCells(const TrainingJob& job, const Cluster& cluster);

  // Generates `job`'s Cell candidates into `candidates_`, prunes them for the
  // ablation flags and estimates the rest into `batch_`. Returns the number
  // generated before pruning.
  size_t EstimateCandidates(const TrainingJob& job, const Cluster& cluster);

  // §8.6 ablation pruning in place: Crius-NH keeps only the requested GPU
  // type, Crius-NA only the requested size. Order-preserving.
  void PruneAblatedCells(const TrainingJob& job, std::vector<Cell>* candidates) const;

  // Round-start memo maintenance. The memo persists across rounds: when the
  // health epoch moved AND the round's event delta reports the health
  // changes, only entries whose §6.1 candidate-size set actually changed (a
  // per-type capacity cap crossed one of the job's three candidate sizes) are
  // re-ranked; the rest are kept. Falls back to a full re-rank when the
  // cluster identity changed or the epoch moved with an empty-handed event
  // delta. Always evicts entries for jobs no longer in the round, ranks the
  // missing entries, and rebuilds `cells_snapshot_`.
  void SyncCellsCache(const RoundContext& round);

  // One full virtual-scheduling pass with a fixed queued-job order; also
  // returns the decision's objective total: throughput*sum(score) -
  // energy*sum(kW) - fragmentation*stranding of the final free map. Pure
  // function of (now, jobs, cluster, order) given the synced snapshot; the
  // pass scratch below is reset on entry.
  std::pair<ScheduleDecision, double> ScheduleOnce(double now,
                                                   const std::vector<const JobState*>& jobs,
                                                   const Cluster& cluster,
                                                   CriusPlacementOrder order);

  // A memoized ranking and the placement state kept with it.
  struct MemoEntry {
    JobCells cells;
    JobPlacement placement;
  };

  // Erases the entry's job from move_classes_ if it is indexed; called before
  // the entry leaves the memo.
  void Unindex(MemoEntry& entry);

  CriusConfig config_;
  // Watt table backing the energy term; only read under a non-zero energy
  // weight.
  PowerModel power_model_ = PowerModel::Default();
  // Ranking memo: job id -> scored Cells. Every entry is valid for the
  // (cluster identity, health epoch) recorded below: each non-steady sync
  // either clears the map or re-ranks the entries the epoch change dirtied,
  // and evicts departed jobs. The identity nonce catches a scheduler being
  // handed a different Cluster object whose epoch happens to match (e.g. a
  // fresh cluster also at epoch 0, or one reusing a freed address) so it
  // cannot keep rankings computed against hardware that no longer exists.
  // Only SyncCellsCache mutates it; node-based, so the snapshot's pointers
  // survive inserts.
  std::unordered_map<int64_t, MemoEntry> cells_memo_;
  // Stamp of the previous round's sync, plus the per-type candidate-size caps
  // (FloorPowerOfTwo of usable capacity) observed then -- the inputs the
  // dirty-set predicate diffs against. Cluster identities start at 1, so
  // identity 0 means no sync has run yet.
  uint64_t cells_identity_ = 0;
  uint64_t cells_epoch_ = 0;
  std::array<int, kNumGpuTypes> cells_caps_{};
  // Round-maintenance scratch, reused across rounds so steady-state sync does
  // no heap allocation.
  std::vector<int64_t> active_ids_;
  std::vector<size_t> missing_;  // positions in round.jobs()
  // The round's rankings resolved once per sync, positionally aligned with
  // round.jobs(): the ScheduleOnce passes read these pointers directly. The
  // id tags let the steady fast path confirm the round's jobs are exactly
  // last sync's, in order.
  std::vector<std::pair<int64_t, MemoEntry*>> cells_snapshot_;
  // Ranking scratch (ComputeCells, ProfilingDelay) and ScheduleOnce pass
  // scratch, reused so steady-state rounds reallocate nothing.
  std::vector<Cell> candidates_;
  CellBatchResult batch_;
  std::vector<VirtualJob> vjobs_;
  std::vector<size_t> queued_order_;
  std::vector<FitIndex> deadline_fits_;
  // The scaling search's move classes over the placed jobs. They outlive the
  // pass: each pass that searches syncs them to its own virtual state at its
  // first search (MoveClassIndex::Sync), and a memo entry that leaves takes
  // its victim with it. Cleared with the memo on a full re-rank.
  MoveClassIndex move_classes_;
};

}  // namespace crius

#endif  // SRC_SCHED_CRIUS_SCHED_H_
