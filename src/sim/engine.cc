#include "src/sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/core/cell.h"
#include "src/parallel/perf_model.h"
#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/shutdown.h"
#include "src/util/trace.h"

namespace crius {

namespace {

constexpr double kEps = 1e-6;

// Bumps the per-kind event counter. Each CRIUS_COUNTER_INC site resolves its
// registry entry once, on first use, so an event costs one atomic add.
void CountEvent(SimEvent::Kind kind) {
  switch (kind) {
    case SimEvent::Kind::kStart:
      CRIUS_COUNTER_INC("sim.starts");
      return;
    case SimEvent::Kind::kRestart:
      CRIUS_COUNTER_INC("sim.restarts");
      return;
    case SimEvent::Kind::kMigrate:
      CRIUS_COUNTER_INC("sim.migrations");
      return;
    case SimEvent::Kind::kPreempt:
      CRIUS_COUNTER_INC("sim.preempts");
      return;
    case SimEvent::Kind::kFinish:
      CRIUS_COUNTER_INC("sim.finishes");
      return;
    case SimEvent::Kind::kDrop:
      CRIUS_COUNTER_INC("sim.drops");
      return;
    case SimEvent::Kind::kCancel:
      CRIUS_COUNTER_INC("sim.cancels");
      return;
    case SimEvent::Kind::kFailureKill:
      CRIUS_COUNTER_INC("sim.failure_kills");
      return;
    case SimEvent::Kind::kNodeFail:
      CRIUS_COUNTER_INC("sim.node_fails");
      return;
    case SimEvent::Kind::kNodeRecover:
      CRIUS_COUNTER_INC("sim.node_recovers");
      return;
    case SimEvent::Kind::kStragglerStart:
      CRIUS_COUNTER_INC("sim.straggler_starts");
      return;
    case SimEvent::Kind::kStragglerEnd:
      CRIUS_COUNTER_INC("sim.straggler_ends");
      return;
  }
  CRIUS_COUNTER_INC("sim.events");
}

bool CancelBefore(const JobCancelEvent& a, const JobCancelEvent& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.job_id < b.job_id;
}

}  // namespace

SimEngine::SimEngine(const Cluster& cluster_template, SimConfig config, Scheduler& scheduler,
                     PerformanceOracle& oracle)
    : cluster_template_(cluster_template),
      config_(std::move(config)),
      scheduler_(scheduler),
      oracle_(oracle),
      cluster_(cluster_template_) {
  SortFailureSchedule(config_.failures);
  std::stable_sort(config_.cancels.begin(), config_.cancels.end(), CancelBefore);
  result_.scheduler = scheduler_.name();
  if (config_.reconfig.enabled) {
    // Sync the shared cost legs so a migration is never priced differently
    // from the plain restart the engine would charge for the same move.
    ReconfigConfig rc = config_.reconfig;
    rc.cost.restart_overhead = config_.restart_overhead;
    rc.cost.checkpoint_bandwidth = config_.checkpoint_bandwidth;
    reconfig_ = std::make_unique<ReconfigPolicy>(&oracle_, rc, config_.checkpoint,
                                                 config_.node_mtbf);
  }
  if (config_.power.enabled) {
    power_ = std::make_unique<PowerLedger>(PowerModel::Default(config_.power.dvfs), cluster_);
  }
}

double SimEngine::ProjectedDrawWatts() const {
  return power_ != nullptr ? power_->CurrentDrawWatts() : 0.0;
}

bool SimEngine::TryAddJob(const TrainingJob& job) {
  if (job_index_.find(job.id) != job_index_.end()) {
    return false;
  }
  // Price admission against the pristine template: a live submission may
  // arrive after failures mutated the working cluster, and a replayed session
  // must derive the same schedulable_at and reference throughput.
  SimJob sj;
  sj.reference_throughput = ReferenceThroughput(oracle_, cluster_template_, job);
  if (sj.reference_throughput <= 0.0) {
    return false;
  }
  double delay = 0.0;
  if (config_.charge_profiling) {
    delay = scheduler_.ProfilingDelay(job, cluster_template_);
    CRIUS_HISTOGRAM_RECORD("sim.profile_delay_s", delay);
  }
  sj.state.job = job;
  sj.state.phase = JobPhase::kQueued;
  sj.schedulable_at = job.submit_time + delay;
  job_index_[job.id] = jobs_.size();
  arrivals_.emplace(job.submit_time, jobs_.size());
  max_submit_ = std::max(max_submit_, job.submit_time);
  jobs_.push_back(std::move(sj));
  return true;
}

void SimEngine::InjectFailure(const FailureEvent& event) {
  CRIUS_CHECK_MSG(event.time + kEps >= now_,
                  "failure injected in the past: t=" << event.time << " now=" << now_);
  // Sorted insert among the not-yet-applied tail, using SortFailureSchedule's
  // comparator, so same-tick live commands apply in the replay's order.
  auto before = [](const FailureEvent& a, const FailureEvent& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.node_id != b.node_id) {
      return a.node_id < b.node_id;
    }
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  };
  auto it = std::upper_bound(config_.failures.begin() + static_cast<ptrdiff_t>(next_failure_),
                             config_.failures.end(), event, before);
  config_.failures.insert(it, event);
}

void SimEngine::InjectCancel(double time, int64_t job_id) {
  CRIUS_CHECK_MSG(time + kEps >= now_,
                  "cancel injected in the past: t=" << time << " now=" << now_);
  const JobCancelEvent event{time, job_id};
  auto it = std::upper_bound(config_.cancels.begin() + static_cast<ptrdiff_t>(next_cancel_),
                             config_.cancels.end(), event, CancelBefore);
  config_.cancels.insert(it, event);
}

double SimEngine::NextEventTime() const {
  double next_completion = std::numeric_limits<double>::infinity();
  for (size_t i : active_) {
    next_completion = std::min(next_completion, CompletionTime(jobs_[i], now_));
  }
  double t_next = std::min(next_round_, next_completion);
  if (next_failure_ < config_.failures.size()) {
    t_next = std::min(t_next, config_.failures[next_failure_].time);
  }
  if (next_cancel_ < config_.cancels.size()) {
    t_next = std::min(t_next, config_.cancels[next_cancel_].time);
  }
  return t_next;
}

void SimEngine::AdvanceJob(SimJob& sj, double t0, double t1) const {
  if (sj.state.phase != JobPhase::kRunning) {
    return;
  }
  const double from = std::max(t0, sj.state.blocked_until);
  if (from >= t1 || sj.state.iter_time <= 0.0) {
    return;
  }
  sj.state.iters_done += (t1 - from) / sj.state.iter_time;
}

double SimEngine::CompletionTime(const SimJob& sj, double at) const {
  if (sj.state.phase != JobPhase::kRunning || sj.state.iter_time <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double from = std::max(at, sj.state.blocked_until);
  return from + sj.state.remaining_iters() * sj.state.iter_time;
}

void SimEngine::Record(SimJob& sj, double time, SimEvent::Kind kind, std::string placement) {
  CountEvent(kind);
  sj.last_event = time;
  if (config_.record_events) {
    result_.events.push_back(SimEvent{time, kind, sj.state.job.id, std::move(placement)});
  }
}

// Cluster-health events carry the node id in the job_id field.
void SimEngine::RecordCluster(double time, SimEvent::Kind kind, int node_id,
                              std::string detail) {
  CountEvent(kind);
  if (config_.record_events) {
    result_.events.push_back(SimEvent{time, kind, node_id, std::move(detail)});
  }
}

// Closes the GPU-second ledger for a job's current allocation segment at
// time `t`. Every iteration gained in the segment survived, valued at the
// plan's base rate; the rest of the hold time (restart stall, checkpoint
// writes, straggler stretch) is overhead.
void SimEngine::SettleSegment(SimJob& sj, double t) {
  const double held = (t - sj.grant_time) * static_cast<double>(sj.state.ngpus);
  result_.total_gpu_seconds += held;
  const double gained = sj.state.iters_done - sj.segment_start_iters;
  const double useful = gained * sj.base_iter_time * static_cast<double>(sj.state.ngpus);
  result_.useful_gpu_seconds += useful;
  if (power_ != nullptr) {
    power_->SettleSegment(sj.state.job.id, sj.state.gpu_type, held, useful);
  }
}

// Same, but a hardware failure ends the segment: progress since the last
// completed checkpoint is destroyed (all of it when checkpointing is off)
// and rolls iters_done back, landing in the lost-work ledger.
void SimEngine::SettleSegmentFailed(SimJob& sj, double t) {
  const double held = (t - sj.grant_time) * static_cast<double>(sj.state.ngpus);
  result_.total_gpu_seconds += held;
  const double gained = sj.state.iters_done - sj.segment_start_iters;
  double preserved = 0.0;
  if (gained > 0.0 && sj.state.iter_time > 0.0) {
    // Checkpoints complete every ckpt_interval seconds of wall progress.
    const double progress_seconds = gained * sj.state.iter_time;
    preserved = PreservedProgress(sj.ckpt_interval, progress_seconds) / sj.state.iter_time;
  }
  const double lost = gained - preserved;
  sj.state.iters_done = sj.segment_start_iters + preserved;
  const double useful = preserved * sj.base_iter_time * static_cast<double>(sj.state.ngpus);
  result_.useful_gpu_seconds += useful;
  result_.lost_gpu_seconds +=
      lost * sj.base_iter_time * static_cast<double>(sj.state.ngpus);
  if (power_ != nullptr) {
    power_->SettleSegment(sj.state.job.id, sj.state.gpu_type, held, useful);
  }
  CRIUS_HISTOGRAM_RECORD("sim.lost_iters_per_kill", lost);
}

// Returns a running job's GPUs to the cluster and the power ledger and clears
// its placement. Callers settle the segment first and set the new phase.
void SimEngine::ReleaseGrant(SimJob& sj) {
  cluster_.Release(sj.alloc);
  if (power_ != nullptr) {
    power_->OnRelease(sj.alloc);
  }
  sj.alloc = Allocation{};
  sj.state.ngpus = 0;
  sj.state.nstages = 0;
  sj.state.iter_time = 0.0;
}

// Kills a running job whose hardware failed: rolls progress back to the last
// checkpoint, releases the grant, and requeues it for the recovery round.
void SimEngine::KillJob(SimJob& sj, double at) {
  SettleSegmentFailed(sj, at);
  ReleaseGrant(sj);
  sj.state.phase = JobPhase::kQueued;
  sj.failure_restart_pending = true;
  sj.killed_at = at;
  ++result_.failure_kills;
  Record(sj, at, SimEvent::Kind::kFailureKill);
  round_events_.push_back(RoundEvent::JobPhaseChange(sj.state.job.id));
}

// Re-derives the realized iteration time of every running job touching
// `node_id` after its straggler factor changed.
void SimEngine::RefreshSlowdowns(int node_id) {
  for (size_t i : active_) {
    SimJob& sj = jobs_[i];
    if (sj.state.phase != JobPhase::kRunning) {
      continue;
    }
    bool touches = false;
    for (const auto& [id, count] : sj.alloc.node_gpus) {
      (void)count;
      touches = touches || id == node_id;
    }
    if (touches) {
      sj.state.iter_time = DegradedIterTime(sj.base_iter_time * sj.ckpt_factor,
                                            cluster_.MaxSlowdown(sj.alloc));
    }
  }
}

// Applies one cluster-health event at time `at`. Returns true when the
// change warrants an immediate scheduling round.
bool SimEngine::ApplyFault(const FailureEvent& e, double at) {
  const NodeInfo& node = cluster_.nodes()[e.node_id];
  switch (e.kind) {
    case FailureKind::kNodeFail:
    case FailureKind::kGpuFail: {
      const int usable_on_node = node.total_gpus - node.failed_gpus;
      const int want = std::min(
          e.kind == FailureKind::kGpuFail ? std::max(1, e.gpus) : usable_on_node,
          usable_on_node);
      if (want <= 0) {
        return false;  // node already fully failed
      }
      // Allocated devices cannot fail in place: any job holding GPUs on the
      // node aborts (NCCL-style collective failure), freeing them. Lowest
      // job id first for determinism.
      while (cluster_.nodes()[e.node_id].free_gpus < want) {
        SimJob* victim = nullptr;
        for (size_t i : active_) {
          SimJob& sj = jobs_[i];
          if (sj.state.phase != JobPhase::kRunning) {
            continue;
          }
          for (const auto& [id, count] : sj.alloc.node_gpus) {
            (void)count;
            if (id == e.node_id &&
                (victim == nullptr || sj.state.job.id < victim->state.job.id)) {
              victim = &sj;
            }
          }
        }
        if (victim == nullptr) {
          break;  // nothing left to kill; clamp to what is free
        }
        KillJob(*victim, at);
      }
      const int failed = cluster_.MarkFailed(e.node_id, want);
      if (power_ != nullptr) {
        power_->SyncNode(cluster_, e.node_id);
      }
      ++result_.failure_events;
      RecordCluster(at, SimEvent::Kind::kNodeFail, e.node_id,
                    GpuName(node.type) + "x" + std::to_string(failed));
      round_events_.push_back(RoundEvent::NodeFail(e.node_id, node.type));
      return true;
    }
    case FailureKind::kNodeRecover:
    case FailureKind::kGpuRecover: {
      const int recovered = cluster_.MarkRecovered(
          e.node_id, e.kind == FailureKind::kGpuRecover ? std::max(1, e.gpus) : 0);
      if (recovered == 0) {
        return false;
      }
      if (power_ != nullptr) {
        power_->SyncNode(cluster_, e.node_id);
      }
      RecordCluster(at, SimEvent::Kind::kNodeRecover, e.node_id,
                    GpuName(node.type) + "x" + std::to_string(recovered));
      round_events_.push_back(RoundEvent::NodeRecover(e.node_id, node.type));
      return true;
    }
    case FailureKind::kStragglerStart: {
      cluster_.SetNodeSlowdown(e.node_id, std::max(1.0, e.slowdown));
      RefreshSlowdowns(e.node_id);
      std::ostringstream factor;
      factor << "x" << std::max(1.0, e.slowdown);
      RecordCluster(at, SimEvent::Kind::kStragglerStart, e.node_id, factor.str());
      round_events_.push_back(
          RoundEvent::SlowdownChange(e.node_id, node.type, std::max(1.0, e.slowdown)));
      return true;
    }
    case FailureKind::kStragglerEnd: {
      cluster_.SetNodeSlowdown(e.node_id, 1.0);
      RefreshSlowdowns(e.node_id);
      RecordCluster(at, SimEvent::Kind::kStragglerEnd, e.node_id, "");
      round_events_.push_back(RoundEvent::SlowdownChange(e.node_id, node.type, 1.0));
      return true;
    }
  }
  return false;
}

// Applies one owner-initiated withdrawal. Cancels of unknown or already
// finished/dropped jobs are ignored (a replayed session log may carry them
// verbatim). Returns true when the cancel freed GPUs, warranting an immediate
// scheduling round.
bool SimEngine::ApplyCancel(const JobCancelEvent& e, double at) {
  const auto it = job_index_.find(e.job_id);
  if (it == job_index_.end()) {
    return false;
  }
  SimJob& sj = jobs_[it->second];
  if (sj.state.phase != JobPhase::kQueued && sj.state.phase != JobPhase::kRunning) {
    return false;
  }
  const bool was_running = sj.state.phase == JobPhase::kRunning;
  if (was_running) {
    SettleSegment(sj, at);
    ReleaseGrant(sj);
  }
  sj.state.phase = JobPhase::kDropped;
  ++terminal_;
  Record(sj, at, SimEvent::Kind::kCancel);
  if (sj.announced) {
    // The scheduler only hears about jobs it has seen arrive; a job cancelled
    // inside its profiling window just vanishes.
    round_events_.push_back(RoundEvent::JobDrop(sj.state.job.id));
  }
  return was_running;
}

// Applies one scheduling decision at time `at`: a delta that names only the
// jobs whose grant changes (DESIGN.md §7b "Decision deltas"), so the work
// follows the changes, not the visible jobs.
void SimEngine::ApplyDecision(double at, const ScheduleDecision& decision) {
  // Every named job, mapped to its slot in jobs_. `source` says which list
  // named it; a job may be named once, except that a migration overrides the
  // job's entry in `assignments`.
  enum Source : uint8_t { kAssign, kMigrate, kPreempt, kDrop };
  struct Change {
    size_t index;
    Source source;
    const Assignment* assignment;      // kAssign
    const MigrationAction* migration;  // kMigrate, or kAssign overridden
  };
  std::vector<Change> changes;
  changes.reserve(decision.assignments.size() + decision.preempted.size() +
                  decision.dropped.size() + decision.migrations.size());
  // The jobs RunScheduler showed the scheduler: announced (visible at some
  // round, so in active_ until terminal) and still queued or running.
  auto visible_slot = [&](int64_t id) {
    const auto it = job_index_.find(id);
    CRIUS_CHECK_MSG(it != job_index_.end() && jobs_[it->second].announced &&
                        (jobs_[it->second].state.phase == JobPhase::kQueued ||
                         jobs_[it->second].state.phase == JobPhase::kRunning),
                    scheduler_.name() << " decision names job " << id
                                      << ", which is not visible");
    return it->second;
  };
  for (const auto& [id, a] : decision.assignments) {
    changes.push_back(Change{visible_slot(id), kAssign, &a, nullptr});
  }
  for (int64_t id : decision.preempted) {
    const size_t i = visible_slot(id);
    CRIUS_CHECK_MSG(jobs_[i].state.phase == JobPhase::kRunning,
                    scheduler_.name() << " decision preempts job " << id
                                      << ", which is not running");
    changes.push_back(Change{i, kPreempt, nullptr, nullptr});
  }
  for (const MigrationAction& m : decision.migrations) {
    const size_t i = visible_slot(m.job_id);
    CRIUS_CHECK_MSG(jobs_[i].state.phase == JobPhase::kRunning,
                    "migration of non-running job " << m.job_id);
    changes.push_back(Change{i, kMigrate, nullptr, &m});
  }
  // Drops apply here, before any release, in the decision's order.
  for (int64_t id : decision.dropped) {
    const size_t i = visible_slot(id);
    SimJob& sj = jobs_[i];
    CRIUS_CHECK_MSG(sj.state.phase == JobPhase::kQueued,
                    scheduler_.name() << " decision drops job " << id
                                      << ", which is not queued");
    changes.push_back(Change{i, kDrop, nullptr, nullptr});
    sj.state.phase = JobPhase::kDropped;
    ++terminal_;
    Record(sj, at, SimEvent::Kind::kDrop);
    round_events_.push_back(RoundEvent::JobDrop(id));
  }
  // Slot order is active_ order, so releases, allocations and events happen
  // in the order a walk over every visible job would make them.
  std::sort(changes.begin(), changes.end(), [](const Change& a, const Change& b) {
    return a.index != b.index ? a.index < b.index : a.source < b.source;
  });
  size_t kept = 0;
  for (size_t k = 0; k < changes.size(); ++k) {
    Change& c = changes[k];
    if (kept > 0 && changes[kept - 1].index == c.index) {
      Change& prev = changes[kept - 1];
      const int64_t id = jobs_[c.index].state.job.id;
      CRIUS_CHECK_MSG(c.source != kDrop || prev.source != kAssign,
                      scheduler_.name() << " decision both assigns and drops job " << id);
      CRIUS_CHECK_MSG(prev.source == kAssign && c.source == kMigrate && prev.migration == nullptr,
                      scheduler_.name() << " decision lists job " << id << " twice");
      prev.migration = c.migration;
      continue;
    }
    changes[kept++] = c;
  }
  changes.resize(kept);

  // Releases: preempted jobs, running jobs whose grant changes, and jobs
  // being migrated (their current grant is released so the new Cell can be
  // allocated from the freed capacity). A running job whose entry keeps its
  // grant only takes the entry's opportunistic flag.
  struct StartItem {
    size_t index;
    Assignment assignment;
    const MigrationAction* migration;  // null for plain starts/restarts
  };
  std::vector<StartItem> to_start;
  for (const Change& c : changes) {
    if (c.source == kDrop) {
      continue;
    }
    SimJob& sj = jobs_[c.index];
    if (sj.state.phase == JobPhase::kRunning) {
      if (c.migration == nullptr && c.assignment != nullptr &&
          KeepsGrant(*c.assignment, sj.state)) {
        sj.state.opportunistic = c.assignment->opportunistic;
        continue;
      }
      // Preempt / reschedule / migrate: release now, maybe restart below.
      SettleSegment(sj, at);
      ReleaseGrant(sj);
      sj.state.phase = JobPhase::kQueued;
      if (c.source == kPreempt) {
        Record(sj, at, SimEvent::Kind::kPreempt);
        round_events_.push_back(RoundEvent::JobPhaseChange(sj.state.job.id));
      }
    }
    if (c.migration != nullptr) {
      to_start.push_back(StartItem{c.index, c.migration->target, c.migration});
    } else if (c.assignment != nullptr) {
      to_start.push_back(StartItem{c.index, *c.assignment, nullptr});
    }
  }

  // Starts / restarts / migration resumes.
  for (const StartItem& item : to_start) {
    const size_t i = item.index;
    const Assignment& a = item.assignment;
    SimJob& sj = jobs_[i];
    CRIUS_CHECK(sj.state.phase == JobPhase::kQueued);
    CRIUS_CHECK_MSG(a.ngpus > 0, "empty assignment for job " << sj.state.job.id);
    auto alloc = cluster_.Allocate(a.type, a.ngpus);
    CRIUS_CHECK_MSG(alloc.has_value(), scheduler_.name()
                                           << " oversubscribed " << GpuName(a.type)
                                           << " by job " << sj.state.job.id);
    double iter_time = 0.0;
    if (a.nstages > 0) {
      // Crius: run the Cell-guided tuned plan.
      const Cell cell{a.type, a.ngpus, a.nstages};
      const TuneResult& tuned = oracle_.TuneCell(sj.state.job.spec, cell);
      if (tuned.best.has_value()) {
        iter_time = tuned.best->iter_time;
      }
    }
    if (iter_time <= 0.0) {
      const std::optional<PlanChoice>& best =
          oracle_.BestAdaptive(sj.state.job.spec, a.type, a.ngpus);
      CRIUS_CHECK_MSG(best.has_value(), scheduler_.name()
                                            << " scheduled infeasible shape for job "
                                            << sj.state.job.id);
      iter_time = best->iter_time;
    }
    if (config_.execution_jitter > 0.0) {
      uint64_t key = static_cast<uint64_t>(sj.state.job.id);
      key = HashCombine(key, static_cast<uint64_t>(a.type));
      key = HashCombine(key, static_cast<uint64_t>(a.ngpus));
      iter_time *= HashJitter(config_.jitter_seed, key, config_.execution_jitter);
    }
    if (power_ != nullptr && power_->model().dvfs.throughput_scale != 1.0) {
      // DVFS: a down-clocked GPU runs every plan proportionally slower. The
      // scale applies to the realized rate, not the oracle's nominal plan, so
      // plan selection (and therefore scheduling) is unchanged.
      iter_time /= power_->model().dvfs.throughput_scale;
    }

    sj.alloc = std::move(*alloc);
    if (power_ != nullptr) {
      power_->OnAllocate(sj.alloc);
    }
    sj.state.phase = JobPhase::kRunning;
    sj.state.gpu_type = a.type;
    sj.state.ngpus = a.ngpus;
    sj.state.nstages = a.nstages;
    // Realized rate: plan latency, stretched by the periodic-checkpoint
    // overhead and the worst straggler among the granted nodes.
    sj.base_iter_time = iter_time;
    sj.ckpt_interval = EffectiveCheckpointInterval(config_.checkpoint, config_.node_mtbf,
                                                   sj.alloc.num_nodes());
    sj.ckpt_factor = CheckpointOverheadFactor(sj.ckpt_interval, config_.checkpoint.cost);
    sj.state.iter_time =
        DegradedIterTime(iter_time * sj.ckpt_factor, cluster_.MaxSlowdown(sj.alloc));
    sj.state.opportunistic = a.opportunistic;
    sj.grant_time = at;
    sj.segment_start_iters = sj.state.iters_done;
    double restart_cost = config_.restart_overhead;
    if (config_.checkpoint_bandwidth > 0.0) {
      restart_cost += 2.0 * GetOpGraph(sj.state.job.spec).TotalParamBytes() /
                      config_.checkpoint_bandwidth;
    }
    if (item.migration != nullptr) {
      // A migration's pause is the cost model's full price (checkpoint write +
      // relaunch + restore + destination warm-up), never the plain restart.
      restart_cost = item.migration->cost_seconds;
    }
    CRIUS_HISTOGRAM_RECORD("sim.restart_cost_s", restart_cost);
    sj.state.blocked_until = at + restart_cost;
    const Cell placement{a.type, a.ngpus, std::max(1, a.nstages)};
    if (item.migration != nullptr) {
      const MigrationAction& m = *item.migration;
      ++sj.state.num_restarts;
      ++sj.sched_restarts;
      ++result_.migrations;
      result_.migration_cost_seconds += m.cost_seconds;
      result_.migration_gain_seconds += m.gain_seconds;
      CounterRegistry::Global()
          .GetCounter("reconfig.migrations",
                      MetricLabels{{"kind", MigrationKindName(m.kind)}})
          .Add(1);
      Record(sj, at, SimEvent::Kind::kMigrate, placement.ToString());
    } else if (!sj.started_once) {
      sj.started_once = true;
      sj.state.first_start = at;
      Record(sj, at, SimEvent::Kind::kStart, placement.ToString());
    } else {
      ++sj.state.num_restarts;
      if (sj.failure_restart_pending) {
        sj.failure_restart_pending = false;
        ++sj.failure_restarts;
        // Recovery ends when the job computes again, not when it is placed.
        const double latency = sj.state.blocked_until - sj.killed_at;
        result_.recovery_latencies.push_back(latency);
        CRIUS_HISTOGRAM_RECORD("sim.recovery_latency_s", latency);
      } else {
        ++sj.sched_restarts;
      }
      Record(sj, at, SimEvent::Kind::kRestart, placement.ToString());
    }
  }
}

// Moves every job submitted by `at` off the arrival heap, then every job
// whose profiling window has closed into active_, merged in index order.
// Visibility never reverts (now_ never decreases and a killed or preempted
// job stays visible), so this is the only way into active_.
void SimEngine::PromoteArrivals(double at) {
  while (!arrivals_.empty() && at + kEps >= arrivals_.top().first) {
    profiling_.push_back(arrivals_.top().second);
    arrivals_.pop();
  }
  const size_t old_active = active_.size();
  size_t kept = 0;
  for (size_t i : profiling_) {
    const SimJob& sj = jobs_[i];
    if (sj.state.phase != JobPhase::kQueued) {
      continue;  // cancelled before it became visible
    }
    if (at + kEps >= sj.schedulable_at) {
      active_.push_back(i);
    } else {
      profiling_[kept++] = i;
    }
  }
  profiling_.resize(kept);
  if (active_.size() > old_active) {
    const auto mid = active_.begin() + static_cast<ptrdiff_t>(old_active);
    std::sort(mid, active_.end());
    std::inplace_merge(active_.begin(), mid, active_.end());
  }
}

// Runs one scheduler invocation over the currently visible jobs. The
// accumulated round_events_ delta is handed over and reset; when no job is
// visible the delta stays pending for the next real invocation so the
// scheduler never misses a transition.
void SimEngine::RunScheduler(double at) {
  PromoteArrivals(at);
  std::vector<const JobState*> visible;
  for (size_t i : active_) {
    SimJob& sj = jobs_[i];
    if (sj.state.phase == JobPhase::kQueued || sj.state.phase == JobPhase::kRunning) {
      visible.push_back(&sj.state);
      if (!sj.announced) {
        sj.announced = true;
        round_events_.push_back(RoundEvent::JobArrival(sj.state.job.id));
      }
    }
  }
  if (visible.empty()) {
    return;
  }
  CRIUS_TRACE_SPAN_ARGS("sim.schedule",
                        "{\"t\": " + std::to_string(at) +
                            ", \"visible_jobs\": " + std::to_string(visible.size()) + "}");
  CRIUS_COUNTER_INC("sim.sched_invocations");
  const RoundContext round(at, std::move(visible), cluster_, std::move(round_events_));
  round_events_.clear();  // moved-from; restart the next round's delta empty
  ScheduleDecision decision = scheduler_.Schedule(round);
  if (reconfig_ != nullptr) {
    decision.migrations = reconfig_->Propose(round, decision);
  }
  ApplyDecision(at, decision);
}

// Runs right after RunScheduler(at), so every job submitted by `at` is
// already in active_ or profiling_.
void SimEngine::SampleThroughput(double at) {
  ThroughputSample sample;
  sample.time = at;
  sample.usable_gpus = cluster_.UsableGpus();
  for (size_t i : active_) {
    const SimJob& sj = jobs_[i];
    if (sj.state.phase == JobPhase::kRunning) {
      ++sample.running_jobs;
      sample.busy_gpus += sj.state.ngpus;
      if (at >= sj.state.blocked_until && sj.state.iter_time > 0.0) {
        const double thr =
            static_cast<double>(sj.state.job.spec.global_batch) / sj.state.iter_time;
        sample.normalized_throughput += thr / sj.reference_throughput;
      }
    } else if (sj.state.phase == JobPhase::kQueued && at >= sj.state.job.submit_time) {
      ++sample.queued_jobs;
    }
  }
  // Submitted jobs still profiling count as queued too.
  for (size_t i : profiling_) {
    const SimJob& sj = jobs_[i];
    if (sj.state.phase == JobPhase::kQueued && at >= sj.state.job.submit_time) {
      ++sample.queued_jobs;
    }
  }
  if (power_ != nullptr) {
    sample.power_watts = power_->CurrentDrawWatts();
    CRIUS_GAUGE_SET("power.draw_watts", sample.power_watts);
  }
  result_.timeline.push_back(sample);
}

// Drops the jobs that ended this step from active_, preserving its order.
void SimEngine::CompactLiveSet() {
  std::erase_if(active_, [this](size_t i) {
    const JobPhase phase = jobs_[i].state.phase;
    return phase != JobPhase::kQueued && phase != JobPhase::kRunning;
  });
}

SimEngine::SimJob& SimEngine::JobById(int64_t id) {
  const auto it = job_index_.find(id);
  CRIUS_CHECK_MSG(it != job_index_.end(), "unknown job id " << id);
  return jobs_[it->second];
}

void SimEngine::ProcessNext() {
  // The pre-step live count, logged at the round boundary below (matches the
  // historical batch loop, which logged the count from the previous
  // iteration's recount).
  const int live_before = LiveJobs();
  CRIUS_CHECK_MSG(live_before > 0, "ProcessNext with no live jobs");
  CRIUS_CHECK_MSG(!finished_, "SimEngine stepped after Finish");

  const double t_next = NextEventTime();
  CRIUS_CHECK(t_next < std::numeric_limits<double>::infinity());

  for (size_t i : active_) {
    AdvanceJob(jobs_[i], now_, t_next);
  }
  now_ = t_next;
  if (power_ != nullptr) {
    // Integrate energy over [prev, t_next] before any allocation changes at
    // t_next mutate the busy sets — draw is constant within a step interval.
    power_->AdvanceTo(now_);
  }

  // Completions (SchedDeparture).
  bool departed = false;
  for (size_t i : active_) {
    SimJob& sj = jobs_[i];
    if (sj.state.phase == JobPhase::kRunning &&
        sj.state.iters_done + kEps >= static_cast<double>(sj.state.job.iterations)) {
      SettleSegment(sj, now_);
      ReleaseGrant(sj);
      sj.state.phase = JobPhase::kFinished;
      ++terminal_;
      sj.state.finish_time = now_;
      Record(sj, now_, SimEvent::Kind::kFinish);
      round_events_.push_back(RoundEvent::JobDeparture(sj.state.job.id));
      departed = true;
    }
  }
  if (departed) {
    RunScheduler(now_);
  }

  // Owner cancels, then cluster-health changes: kill affected jobs, then
  // re-schedule immediately against the surviving hardware (Crius re-derives
  // Cells; baselines requeue).
  bool churn = false;
  while (next_cancel_ < config_.cancels.size() &&
         config_.cancels[next_cancel_].time <= now_ + kEps) {
    churn = ApplyCancel(config_.cancels[next_cancel_], now_) || churn;
    ++next_cancel_;
  }
  while (next_failure_ < config_.failures.size() &&
         config_.failures[next_failure_].time <= now_ + kEps) {
    churn = ApplyFault(config_.failures[next_failure_], now_) || churn;
    ++next_failure_;
  }
  if (churn) {
    RunScheduler(now_);
  }

  // Round boundary (SchedArrival + periodic rescheduling).
  if (now_ + kEps >= next_round_) {
    RunScheduler(now_);
    SampleThroughput(now_);
    next_round_ += config_.schedule_interval;
    // Per-round chatter: kInfo when the caller asked for it, kDebug
    // otherwise so CRIUS_LOG_LEVEL=debug surfaces it without a code change.
    // The message is only built when the level lets it through.
    const LogLevel level = config_.verbose ? LogLevel::kInfo : LogLevel::kDebug;
    if (level >= GetLogLevel()) {
      std::ostringstream round_msg;
      round_msg << scheduler_.name() << " t=" << now_ << " live=" << live_before;
      LogMessage(level, round_msg.str());
    }
  }

  CompactLiveSet();
}

void SimEngine::AdvanceTo(double t) {
  while (LiveJobs() > 0 && now_ < MaxTime() && NextEventTime() <= t) {
    ProcessNext();
  }
}

void SimEngine::Drain() {
  // The shutdown check makes SIGINT/SIGTERM graceful for every driver: the
  // loop stops at a step boundary and the caller flushes partial results.
  while (LiveJobs() > 0 && now_ < MaxTime() && !ShutdownRequested()) {
    ProcessNext();
  }
}

double SimEngine::MaxTime() const {
  return std::max(max_submit_, 1.0) * config_.max_time_factor + 24.0 * kHour;
}

// Running jobs are always visible, so active_ holds all of them.
int SimEngine::RunningJobs() const {
  int n = 0;
  for (size_t i : active_) {
    n += jobs_[i].state.phase == JobPhase::kRunning ? 1 : 0;
  }
  return n;
}

int SimEngine::QueuedJobs() const {
  return LiveJobs() - RunningJobs();
}

const JobState* SimEngine::FindJob(int64_t id) const {
  const auto it = job_index_.find(id);
  return it == job_index_.end() ? nullptr : &jobs_[it->second].state;
}

SimResult SimEngine::Finish() {
  CRIUS_CHECK_MSG(!finished_, "SimEngine::Finish called twice");
  finished_ = true;
  for (SimJob& sj : jobs_) {
    // Jobs still live when the simulation stopped were last observed now; any
    // still-held grant settles its GPU-second ledger at the horizon.
    if (sj.state.phase == JobPhase::kQueued || sj.state.phase == JobPhase::kRunning) {
      sj.last_event = now_;
      if (sj.state.phase == JobPhase::kRunning) {
        SettleSegment(sj, now_);
      }
    }
  }
  for (const SimJob& sj : jobs_) {
    JobRecord r;
    r.id = sj.state.job.id;
    r.submit = sj.state.job.submit_time;
    r.first_start = sj.state.first_start;
    r.finish = sj.state.finish_time;
    r.ideal_duration = static_cast<double>(sj.state.job.iterations) *
                       static_cast<double>(sj.state.job.spec.global_batch) /
                       sj.reference_throughput;
    r.last_event = sj.last_event;
    r.restarts = sj.state.num_restarts;
    r.sched_restarts = sj.sched_restarts;
    r.failure_restarts = sj.failure_restarts;
    r.finished = sj.state.phase == JobPhase::kFinished;
    r.dropped = sj.state.phase == JobPhase::kDropped;
    r.had_deadline = sj.state.job.deadline.has_value();
    r.deadline_met = r.finished && r.had_deadline && r.finish <= *sj.state.job.deadline;
    result_.jobs.push_back(r);
  }
  result_.cluster_gpus = cluster_.TotalGpus();
  if (power_ != nullptr) {
    result_.power_enabled = true;
    result_.total_joules = power_->total_joules();
    result_.useful_joules = power_->useful_joules();
    result_.idle_joules = power_->idle_joules();
    result_.lost_joules = power_->lost_joules();
    result_.avg_power_watts = now_ > 0.0 ? result_.total_joules / now_ : 0.0;
    for (const PowerLedger::NodeUsage& n : power_->nodes()) {
      result_.node_power.push_back(
          NodePowerRecord{n.node_id, GpuName(n.type), n.total_gpus, n.joules});
    }
    CRIUS_COUNTER_ADD("power.total_joules", static_cast<int64_t>(result_.total_joules));
    CRIUS_COUNTER_ADD("power.useful_joules", static_cast<int64_t>(result_.useful_joules));
    CRIUS_COUNTER_ADD("power.idle_joules", static_cast<int64_t>(result_.idle_joules));
    CRIUS_COUNTER_ADD("power.lost_joules", static_cast<int64_t>(result_.lost_joules));
  }
  result_.Finalize();
  return std::move(result_);
}

}  // namespace crius
