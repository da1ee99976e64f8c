// Steppable discrete-event engine behind both execution modes.
//
// SimEngine owns the event loop that used to live inside Simulator::Run: the
// batch simulator adds every trace job up front and steps until the system
// drains; the serve Controller (src/serve) adds jobs, failures, and cancels
// as external commands arrive and calls AdvanceTo(tick). Because both paths
// run the *same* stepping code, a recorded live session replayed through the
// batch simulator is bit-identical by construction — there is no second copy
// of the simulation semantics to drift.
//
// Determinism contract (what makes live == replay exact):
//  - One ProcessNext() call performs exactly one step of the original batch
//    loop: advance running jobs to the next event time, settle completions
//    (+ departure round), apply due cancels and cluster-health changes
//    (+ churn round), then the round boundary (+ throughput sample). The
//    engine's clock only ever lands ON event times; it is never advanced to
//    an arbitrary wall-clock tick, so floating-point progress sums are
//    accumulated over the identical sequence of intervals in both modes.
//  - AdvanceTo(t) lazily catches up: it processes every step with event time
//    <= t and leaves now() at the last processed event. An idle live engine
//    (no live jobs) processes nothing; once a submission arrives, the skipped
//    round boundaries are processed late but at their own times, producing
//    the same schedule/timeline rows the batch run produces eagerly.
//  - Admission (TryAddJob) is one path for the batch prepass and live
//    submissions: it prices ProfilingDelay and the reference throughput
//    against the pristine cluster *template*, which no failure mutates, so a
//    job admitted mid-session gets the same schedulable_at in the replay.
//  - InjectFailure keeps the pending schedule in SortFailureSchedule's
//    canonical (time, node, kind) order, so same-tick live commands apply in
//    the order the replay's pre-sorted list would.
//
// The replay guarantee therefore holds for DRAINED sessions: a live session
// that ends with Drain() (shutdown waits for the system to empty or hit the
// time cap) has processed exactly the step sequence the batch run processes.
//
// Cost: a step is proportional to the *visible* jobs (queued or running and
// past their profiling window), not to every job ever added. A live-set index
// (DESIGN.md "Live-set index") keeps those jobs in ascending jobs_ order, so
// every per-step walk visits them in the order a scan of all jobs would and
// the float sums, release order and event order are unchanged; arrivals wait
// in a submit-time heap and profiling jobs in a short list. TryAddJob is
// O(log n) after pricing, and LiveJobs/MaxTime are O(1); only Finish walks
// every job.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace crius {

class SimEngine {
 public:
  // Copies the cluster template and sorts the config's failure/cancel
  // schedules into canonical order. `scheduler` and `oracle` must outlive the
  // engine. The config must already be valid (Simulator and the serve session
  // runtime both run SimConfig::Validate first).
  SimEngine(const Cluster& cluster_template, SimConfig config, Scheduler& scheduler,
            PerformanceOracle& oracle);

  // The one admission path, for the batch prepass and live submissions alike:
  // prices the job's profiling delay and reference throughput against the
  // pristine cluster template. Returns false — job not added — when its id is
  // taken or it is infeasible on every GPU type; the batch prepass aborts on
  // that, the live controller turns it into an admission rejection.
  bool TryAddJob(const TrainingJob& job);

  // Queues a cluster-health change, keeping the pending schedule in canonical
  // (time, node, kind) order. `event.time` must be >= now().
  void InjectFailure(const FailureEvent& event);

  // Queues an owner-initiated withdrawal ((time, job_id) order, time >= now()).
  void InjectCancel(double time, int64_t job_id);

  // Time of the next step the engine would process: the earliest of the next
  // round boundary, running-job completion, pending failure, and pending
  // cancel.
  double NextEventTime() const;

  // Processes exactly one step (one iteration of the original batch loop) at
  // NextEventTime(). Requires LiveJobs() > 0.
  void ProcessNext();

  // Processes every step with NextEventTime() <= t; now() ends at the last
  // processed event time (NOT at t — see the determinism contract above).
  void AdvanceTo(double t);

  // Steps until no job is live or now() reaches MaxTime(). This is the batch
  // run and the live shutdown drain.
  void Drain();

  // Jobs still queued or running (future arrivals included);
  // RunningJobs() + QueuedJobs() == LiveJobs().
  int LiveJobs() const { return static_cast<int>(jobs_.size()) - terminal_; }
  int RunningJobs() const;
  int QueuedJobs() const;

  double now() const { return now_; }

  // Horizon cap from the jobs added so far: max submit_time scaled by
  // SimConfig::max_time_factor plus a day (the batch formula; it only grows
  // as jobs are added).
  double MaxTime() const;

  // Scheduler-visible state of a job, or nullptr for an unknown id.
  const JobState* FindJob(int64_t id) const;

  const Cluster& cluster() const { return cluster_; }
  const SimConfig& config() const { return config_; }

  // Instantaneous cluster draw from the power ledger (src/power); 0.0 when
  // power accounting is disabled. The serve controller publishes this into
  // the ingress ClusterView for --power-cap-watts admission.
  double ProjectedDrawWatts() const;
  // The ledger itself, or nullptr when power accounting is disabled.
  const PowerLedger* power_ledger() const { return power_.get(); }

  // Chronological event log recorded so far (empty unless record_events).
  const std::vector<SimEvent>& events() const { return result_.events; }

  // Settles still-live jobs at now(), fills the job records, and finalizes
  // the aggregates. The engine must not be stepped afterwards.
  SimResult Finish();

 private:
  // Engine-internal per-job bookkeeping on top of the scheduler-visible
  // JobState.
  struct SimJob {
    JobState state;
    Allocation alloc;             // concrete node grant while running
    double schedulable_at = 0.0;  // submit + profiling delay
    double reference_throughput = 0.0;
    bool started_once = false;
    // Arrival RoundEvent already emitted (first round the job was visible).
    bool announced = false;
    // Last simulation time the job's state changed (JobRecord::last_event).
    double last_event = -1.0;

    // --- Fault-model bookkeeping (src/fault) -------------------------------
    // Plan iteration time incl. execution jitter, excl. checkpoint overhead
    // and straggler factors; the rate "useful work" is valued at.
    double base_iter_time = 0.0;
    // Checkpoint cadence and its steady-state overhead factor per segment.
    double ckpt_interval = 0.0;
    double ckpt_factor = 1.0;
    // Current allocation segment: grant time and progress at grant.
    double grant_time = 0.0;
    double segment_start_iters = 0.0;
    // Set when a hardware failure killed the job; the next launch is a
    // failure-initiated restart and closes the recovery-latency measurement.
    bool failure_restart_pending = false;
    double killed_at = -1.0;
    int sched_restarts = 0;
    int failure_restarts = 0;
  };

  void AdvanceJob(SimJob& sj, double t0, double t1) const;
  double CompletionTime(const SimJob& sj, double at) const;
  void Record(SimJob& sj, double time, SimEvent::Kind kind, std::string placement = "");
  void RecordCluster(double time, SimEvent::Kind kind, int node_id, std::string detail);
  void SettleSegment(SimJob& sj, double t);
  void SettleSegmentFailed(SimJob& sj, double t);
  void ReleaseGrant(SimJob& sj);
  void KillJob(SimJob& sj, double at);
  void RefreshSlowdowns(int node_id);
  bool ApplyFault(const FailureEvent& e, double at);
  bool ApplyCancel(const JobCancelEvent& e, double at);
  void ApplyDecision(double at, const ScheduleDecision& decision);
  void RunScheduler(double at);
  void SampleThroughput(double at);
  void PromoteArrivals(double at);
  void CompactLiveSet();
  SimJob& JobById(int64_t id);

  Cluster cluster_template_;
  SimConfig config_;
  Scheduler& scheduler_;
  PerformanceOracle& oracle_;
  // Live-reconfiguration policy (src/reconfig); null unless
  // SimConfig::reconfig.enabled, so the off path never touches it.
  std::unique_ptr<ReconfigPolicy> reconfig_;
  // Energy ledger (src/power); null unless SimConfig::power.enabled, so the
  // off path never touches it (the inertness contract).
  std::unique_ptr<PowerLedger> power_;

  Cluster cluster_;
  SimResult result_;
  std::vector<SimJob> jobs_;
  std::unordered_map<int64_t, size_t> job_index_;
  // Typed deltas accumulated since the scheduler last ran (the RoundContext
  // completeness contract).
  std::vector<RoundEvent> round_events_;

  // --- Live-set index (DESIGN.md §14) -----------------------------------
  // A live job sits in exactly one of the three sets below. A job that ends
  // stays where it was until that set is next pruned, so every walk checks
  // the phase.
  // Jobs whose submit_time is still ahead, as a (submit_time, jobs_ index)
  // min-heap.
  std::priority_queue<std::pair<double, size_t>, std::vector<std::pair<double, size_t>>,
                      std::greater<>>
      arrivals_;
  // Submitted jobs still inside their profiling window (not yet visible).
  std::vector<size_t> profiling_;
  // Visible queued or running jobs, as jobs_ indices in ascending order;
  // pruned once per step.
  std::vector<size_t> active_;
  // Jobs that reached kFinished or kDropped.
  int terminal_ = 0;
  // Largest submit_time added (MaxTime's trace end).
  double max_submit_ = 0.0;

  double now_ = 0.0;
  double next_round_ = 0.0;
  size_t next_failure_ = 0;
  size_t next_cancel_ = 0;
  bool finished_ = false;
};

}  // namespace crius

#endif  // SRC_SIM_ENGINE_H_
