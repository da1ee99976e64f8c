// ReconfigPolicy: Rubick-style live elasticity for running jobs.
//
// The Cell abstraction fixes a job's (gpu_type, ngpus, nstages) at placement
// time; this policy revisits that choice while the job runs. On the
// RoundEvent triggers that change what the right Cell is -- an arrival burst,
// a node failure or recovery, a straggler window opening or closing, capacity
// freed by departures -- it re-ranks each running job's GenerateCellsUpTo
// candidates through the existing estimator and proposes a typed
// MigrationAction (shrink / grow / re-split / type-swap) whenever the modeled
// remaining-time gain beats the migration cost plus a hysteresis margin.
//
// Gain model (two motives, one accept rule):
//  * Performance: the estimator ranks a reachable Cell strictly better than
//    the job's current one. The relative estimator speedup is applied to the
//    job's *realized* rate, so the gain is in real seconds:
//      gain = remaining * iter_time * (1 - est_iter(to) / est_iter(cur))
//  * Distress: the realized iteration time exceeds the estimator's view of
//    the current Cell by more than `distress_factor` (a straggler or
//    degraded hardware, which estimates never model). Then moving even to an
//    estimator-equal Cell recovers the excess:
//      gain = remaining * (iter_time - est_iter(to))
//    (optimistic: the new allocation is assumed straggler-free, which the
//    cluster's healthy-node-preferring Allocate makes the common case).
// A proposal is accepted only if gain > cost + hysteresis_margin AND
// gain > min_relative_gain * remaining-time, and each job respects a
// per-job cooldown -- the three dampers that prevent migration churn.
// Estimated iteration times are stretched by the destination Cell's
// checkpoint-overhead factor (src/fault/checkpoint.h) so a grow onto more
// nodes honestly pays its higher failure-domain checkpoint cadence.
//
// Determinism contract: Propose is sequential and pure given (round,
// decision, internal cooldown state); jobs are scanned in ascending id and
// candidates in GenerateCells's canonical order, estimated with one
// EstimateCellBatch query per job whose cached values are pure functions of
// their keys -- so proposals are bit-identical from run to run and through
// serve-session replay.

#ifndef SRC_RECONFIG_POLICY_H_
#define SRC_RECONFIG_POLICY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/oracle.h"
#include "src/fault/checkpoint.h"
#include "src/reconfig/migration_cost.h"
#include "src/sched/scheduler.h"

namespace crius {

struct ReconfigConfig {
  // Master switch; everything below is inert while false (the default), so
  // the off path is bit-identical to a build without the subsystem.
  bool enabled = false;
  // Migration pricing. When driven through SimEngine, restart_overhead and
  // checkpoint_bandwidth are synced from SimConfig so migrations and plain
  // restarts price the shared legs identically.
  MigrationCostConfig cost;
  // Accept a migration only when gain > cost + this margin (seconds).
  double hysteresis_margin = 120.0;
  // ... and gain > this fraction of the job's current remaining time.
  double min_relative_gain = 0.05;
  // Minimum virtual seconds between migrations of the same job.
  double cooldown = 900.0;
  // Cap on accepted migrations per scheduling round (0 = unlimited).
  int max_migrations_per_round = 2;
  // Job arrivals in one round delta that count as an "arrival burst" trigger.
  int arrival_burst = 2;
  // Also trigger on job departures (freed capacity is the main grow source).
  bool react_to_departures = true;
  // Never grow a running job while some queued job is still waiting for GPUs:
  // free capacity then belongs to the queue, and growth would push the
  // head-of-line job's start further out (tail-JCT starvation). Shrinks,
  // re-splits, and same-size type swaps stay allowed.
  bool defer_growth_to_queue = true;
  // Realized / estimated iteration-time ratio above which a job counts as
  // distressed (straggler escape may then target estimator-equal Cells).
  double distress_factor = 1.25;
};

class ReconfigPolicy {
 public:
  // `oracle` must outlive the policy. `checkpoint` + `node_mtbf` mirror the
  // engine's fault model so target-Cell estimates carry the same checkpoint
  // overhead the job would realize there.
  ReconfigPolicy(PerformanceOracle* oracle, const ReconfigConfig& config,
                 const CheckpointConfig& checkpoint = {}, double node_mtbf = 0.0);

  // Proposes migrations for the running jobs that `decision` keeps in place.
  // Jobs the decision restarts, preempts, or drops already pay a placement
  // change this round and are skipped. Returns actions in ascending job-id
  // order; capacity accounting starts from cluster usable capacity minus the
  // grants of the decision's resolved target (ResolvedTarget), so folding the
  // actions into the decision can never oversubscribe a GPU type.
  std::vector<MigrationAction> Propose(const RoundContext& round,
                                       const ScheduleDecision& decision);

  const ReconfigConfig& config() const { return config_; }

 private:
  bool Triggered(const RoundContext& round) const;
  // Stretches an estimated iteration time (derived from `throughput`) by the
  // destination Cell's checkpoint-overhead factor; +inf when the estimator
  // calls the Cell infeasible (throughput <= 0).
  double StretchIterTime(const ModelSpec& spec, const Cell& cell, double throughput,
                         const Cluster& cluster) const;

  PerformanceOracle* oracle_;
  ReconfigConfig config_;
  CheckpointConfig checkpoint_;
  double node_mtbf_ = 0.0;
  MigrationCostModel cost_model_;
  // Virtual time of each job's last accepted migration (cooldown state).
  std::map<int64_t, double> last_migration_;
  // Per-job candidate scratch, reused across Propose calls (Propose is
  // sequential by the determinism contract, so plain members suffice): the
  // candidate Cells and the one batched estimator query that replaces the
  // former per-Cell scalar calls.
  std::vector<Cell> cells_scratch_;
  CellBatchResult batch_scratch_;
  std::vector<double> iter_times_;  // stretched est. iter seconds per candidate
};

}  // namespace crius

#endif  // SRC_RECONFIG_POLICY_H_
