#include "src/reconfig/policy.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/util/counters.h"

namespace crius {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

MigrationKind ClassifyMigration(const Cell& from, const Cell& to) {
  if (from.gpu_type != to.gpu_type) {
    return MigrationKind::kTypeSwap;
  }
  if (to.ngpus < from.ngpus) {
    return MigrationKind::kShrink;
  }
  if (to.ngpus > from.ngpus) {
    return MigrationKind::kGrow;
  }
  return MigrationKind::kResplit;
}

}  // namespace

ReconfigPolicy::ReconfigPolicy(PerformanceOracle* oracle, const ReconfigConfig& config,
                               const CheckpointConfig& checkpoint, double node_mtbf)
    : oracle_(oracle),
      config_(config),
      checkpoint_(checkpoint),
      node_mtbf_(node_mtbf),
      cost_model_(config.cost) {}

bool ReconfigPolicy::Triggered(const RoundContext& round) const {
  int arrivals = 0;
  for (const RoundEvent& e : round.events()) {
    if (e.is_health_event()) {
      return true;  // fail / recover / slowdown change: the Cell math moved
    }
    switch (e.kind) {
      case RoundEventKind::kJobArrival:
        ++arrivals;
        break;
      case RoundEventKind::kJobDeparture:
        if (config_.react_to_departures) {
          return true;  // freed capacity: grow opportunities
        }
        break;
      default:
        break;
    }
  }
  return arrivals >= config_.arrival_burst;
}

double ReconfigPolicy::StretchIterTime(const ModelSpec& spec, const Cell& cell,
                                       double throughput, const Cluster& cluster) const {
  if (throughput <= 0.0) {
    return kInf;
  }
  double iter = static_cast<double>(spec.global_batch) / throughput;
  // The target's realized rate pays the same periodic-checkpoint overhead the
  // engine will charge for its node span (src/fault/checkpoint.h, guarded so
  // degenerate configs resolve to factor 1 instead of aborting).
  const int per_node = cluster.GpusPerNode(cell.gpu_type);
  const int nodes = per_node > 0 ? (cell.ngpus + per_node - 1) / per_node : 1;
  const double interval = EffectiveCheckpointInterval(checkpoint_, node_mtbf_, nodes);
  return iter * CheckpointOverheadFactor(interval, checkpoint_.cost);
}

std::vector<MigrationAction> ReconfigPolicy::Propose(const RoundContext& round,
                                                     const ScheduleDecision& decision) {
  std::vector<MigrationAction> actions;
  if (!config_.enabled || !Triggered(round)) {
    return actions;
  }
  CRIUS_COUNTER_INC("reconfig.rounds_triggered");
  const Cluster& cluster = round.cluster();

  // Capacity left after the scheduler's own decision: usable minus every
  // grant of its resolved target (kept running jobs and fresh starts alike).
  // A migrating job credits its current grant back before taking the
  // target's.
  const std::map<int64_t, Assignment> target = ResolvedTarget(round, decision);
  std::array<int, kNumGpuTypes> free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }
  for (const auto& [id, a] : target) {
    (void)id;
    free[static_cast<int>(a.type)] -= a.ngpus;
  }

  // The *oldest* queued job left unassigned this round is waiting for
  // capacity in its requested pool; migrating a running job into that pool
  // (growing there, or swapping in from another type) would push its start
  // further out. Only the oldest waiter's pool is protected: jobs behind it
  // are blocked by queue order, not by the capacity a migration would take.
  std::array<bool, kNumGpuTypes> queue_waiting{};
  if (config_.defer_growth_to_queue) {
    const JobState* oldest = nullptr;
    for (const JobState* js : round.jobs()) {
      if (js->phase != JobPhase::kQueued || target.find(js->job.id) != target.end()) {
        continue;
      }
      if (oldest == nullptr || js->job.submit_time < oldest->job.submit_time ||
          (js->job.submit_time == oldest->job.submit_time && js->job.id < oldest->job.id)) {
        oldest = js;
      }
    }
    if (oldest != nullptr) {
      queue_waiting[static_cast<int>(oldest->job.requested_type)] = true;
    }
  }

  // Running jobs the decision keeps in place, ascending id (round.jobs() is
  // not ordered by contract; sorting pins the scan order for determinism).
  std::vector<const JobState*> candidates;
  for (const JobState* js : round.jobs()) {
    if (js->phase != JobPhase::kRunning) {
      continue;
    }
    const auto it = target.find(js->job.id);
    if (it != target.end() && KeepsGrant(it->second, *js)) {
      candidates.push_back(js);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const JobState* a, const JobState* b) { return a->job.id < b->job.id; });

  for (const JobState* js : candidates) {
    if (config_.max_migrations_per_round > 0 &&
        static_cast<int>(actions.size()) >= config_.max_migrations_per_round) {
      break;
    }
    const double remaining = js->remaining_iters();
    if (remaining <= 0.0 || js->iter_time <= 0.0) {
      continue;
    }
    // Mid-restore jobs (still inside a restart's blocked window) and jobs in
    // their cooldown window are left alone: both are churn guards.
    if (js->blocked_until > round.now()) {
      continue;
    }
    const auto last = last_migration_.find(js->job.id);
    if (last != last_migration_.end() && round.now() - last->second < config_.cooldown) {
      continue;
    }
    CRIUS_COUNTER_INC("reconfig.jobs_considered");

    const Cell current{js->gpu_type, js->ngpus, std::max(1, js->nstages)};
    // One batched estimator query covers the current-size scan and the
    // candidate scan below; iter_times_[i] is the stretched estimate for
    // cells[i] via the same arithmetic the scalar path used, so proposals
    // stay bit-identical to per-Cell queries.
    GenerateCellsInto(js->job, cluster, &cells_scratch_);
    const std::vector<Cell>& cells = cells_scratch_;
    oracle_->EstimateCellBatch(CellBatchRequest{&js->job.spec, cells.data(), cells.size()},
                               &batch_scratch_);
    iter_times_.resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      iter_times_[i] =
          StretchIterTime(js->job.spec, cells[i], batch_scratch_.throughput[i], cluster);
    }
    // The estimator's view of the job's current size: best split at
    // (type, ngpus). Realized-vs-estimated excess beyond distress_factor
    // marks slowdown the estimator cannot see (stragglers).
    double est_cur = kInf;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].gpu_type == current.gpu_type && cells[i].ngpus == current.ngpus) {
        est_cur = std::min(est_cur, iter_times_[i]);
      }
    }
    if (est_cur == kInf) {
      continue;  // current size not rankable (capacity degraded under it)
    }
    const bool distressed = js->iter_time > config_.distress_factor * est_cur;
    const double current_remaining_s = remaining * js->iter_time;

    const MigrationAction* best = nullptr;
    MigrationAction best_action;
    CRIUS_COUNTER_ADD("reconfig.candidates", static_cast<int64_t>(cells.size()));
    for (size_t ci = 0; ci < cells.size(); ++ci) {
      const Cell& cell = cells[ci];
      const bool same_size =
          cell.gpu_type == current.gpu_type && cell.ngpus == current.ngpus;
      if (same_size && (js->nstages == 0 || cell.nstages == current.nstages)) {
        // The job's own Cell -- or, for a baseline-scheduled job running its
        // full adaptive plan (nstages 0), any re-split at the same size: the
        // adaptive plan is ground-truth optimal there, an estimator-guided
        // re-split can only look better than it actually is.
        continue;
      }
      const int avail = free[static_cast<int>(cell.gpu_type)] +
                        (cell.gpu_type == current.gpu_type ? current.ngpus : 0);
      if (cell.ngpus > avail) {
        continue;
      }
      if (queue_waiting[static_cast<int>(cell.gpu_type)] &&
          (cell.gpu_type != current.gpu_type || cell.ngpus > current.ngpus)) {
        // A queued job waits for this pool: the free capacity there is its,
        // not ours. Moves that take net GPUs from the pool (grows within it,
        // swaps into it) are off; shrinks and same-type re-splits -- which
        // free or keep capacity -- stay allowed.
        continue;
      }
      const double est_to = iter_times_[ci];
      if (est_to == kInf) {
        continue;
      }
      double gain = 0.0;
      if (est_to < est_cur) {
        // Performance motive: scale the estimator's relative speedup by the
        // realized rate so the gain is in real seconds.
        gain = current_remaining_s * (1.0 - est_to / est_cur);
      } else if (distressed) {
        // Distress motive: escape slowdown the estimator cannot model; the
        // new allocation is assumed healthy (Allocate prefers healthy nodes).
        gain = remaining * (js->iter_time - est_to);
      } else {
        continue;
      }
      const double cost = cost_model_.Cost(js->job.spec, current, cell);
      if (gain <= cost + config_.hysteresis_margin ||
          gain <= config_.min_relative_gain * current_remaining_s) {
        continue;
      }
      if (best != nullptr && gain - cost <= best_action.gain_seconds - best_action.cost_seconds) {
        continue;  // strict improvement only: first candidate wins ties
      }
      best_action.job_id = js->job.id;
      best_action.kind = ClassifyMigration(current, cell);
      best_action.target.type = cell.gpu_type;
      best_action.target.ngpus = cell.ngpus;
      best_action.target.nstages = cell.nstages;
      best_action.target.opportunistic = js->opportunistic;
      best_action.cost_seconds = cost;
      best_action.gain_seconds = gain;
      best = &best_action;
    }
    if (best == nullptr) {
      continue;
    }
    free[static_cast<int>(current.gpu_type)] += current.ngpus;
    free[static_cast<int>(best_action.target.type)] -= best_action.target.ngpus;
    last_migration_[js->job.id] = round.now();
    CounterRegistry::Global()
        .GetCounter("reconfig.proposals",
                    MetricLabels{{"kind", MigrationKindName(best_action.kind)}})
        .Add(1);
    CRIUS_HISTOGRAM_RECORD("reconfig.gain_s", best_action.gain_seconds);
    CRIUS_HISTOGRAM_RECORD("reconfig.cost_s", best_action.cost_seconds);
    actions.push_back(best_action);
  }
  return actions;
}

}  // namespace crius
