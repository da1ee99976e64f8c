// Scheduler interface.
//
// The simulator (src/sim) drives a Scheduler with a RoundContext each
// scheduling round (and on job departures, per Algorithm 1): the current set
// of active jobs, the cluster, and the typed RoundEvents that happened since
// the previous round. The scheduler returns a target assignment per job: GPU
// type + count, plus -- for Crius -- the Cell's pipeline-stage count. The
// simulator applies the diff (restarts, allocations) and runs every scheduled
// job with adaptive parallelism (§8.1's fair-comparison setup). The event
// delta lets incremental schedulers re-rank only what changed instead of
// re-solving from scratch every round.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/oracle.h"
#include "src/hw/cluster.h"
#include "src/model/job.h"

namespace crius {

enum class JobPhase : uint8_t {
  kQueued,    // submitted, not running
  kRunning,
  kFinished,
  kDropped,   // deadline-infeasible, rejected at admission (§8.5)
};

// Scheduler-visible job state, owned by the simulator.
struct JobState {
  TrainingJob job;
  JobPhase phase = JobPhase::kQueued;

  // Current grant (phase == kRunning only).
  GpuType gpu_type = GpuType::kA100;
  int ngpus = 0;
  int nstages = 0;  // 0 = plan chosen by full adaptive parallelism

  double iter_time = 0.0;    // current plan's iteration latency
  double iters_done = 0.0;   // fractional progress
  double first_start = -1.0;
  double finish_time = -1.0;
  int num_restarts = 0;
  // Progress is blocked (checkpoint/restore/profiling) until this time.
  double blocked_until = 0.0;
  // True if launched opportunistically while a larger job pends (§6.1).
  bool opportunistic = false;

  double remaining_iters() const {
    return static_cast<double>(job.iterations) - iters_done;
  }
};

// Desired placement for one job.
struct Assignment {
  GpuType type = GpuType::kA100;
  int ngpus = 0;
  // Pipeline-stage count of the scheduled Cell; 0 lets the framework pick via
  // full adaptive-parallelism exploration (baselines).
  int nstages = 0;
  // Marks the job as opportunistic (may be preempted for a pending job).
  bool opportunistic = false;
};

// How a live migration changes a running job's Cell (src/reconfig).
enum class MigrationKind : uint8_t {
  kShrink,   // fewer GPUs, same type
  kGrow,     // more GPUs, same type
  kResplit,  // same type and count, different pipeline-stage split
  kTypeSwap, // different GPU type
};

const char* MigrationKindName(MigrationKind kind);

// A typed live-reconfiguration action for one *running* job: pause it, charge
// `cost_seconds` (checkpoint write + relaunch + Cell warm-up, modeled by
// MigrationCostModel), and resume it in `target`. Proposed by ReconfigPolicy
// (src/reconfig) and applied by SimEngine; `gain_seconds` records the modeled
// remaining-time saving that justified the move (observability only).
struct MigrationAction {
  int64_t job_id = -1;
  MigrationKind kind = MigrationKind::kResplit;
  Assignment target;           // nstages > 0: a concrete Cell
  double cost_seconds = 0.0;
  double gain_seconds = 0.0;
};

// One scheduling round's outcome: job id -> assignment. Jobs absent from the
// map stay (or become) queued. `dropped` lists jobs rejected for good.
// `migrations` re-places running jobs live (each target overrides the job's
// entry in `assignments`); empty unless a ReconfigPolicy is active.
struct ScheduleDecision {
  std::map<int64_t, Assignment> assignments;
  std::vector<int64_t> dropped;
  std::vector<MigrationAction> migrations;
};

// What changed between two scheduling rounds. RoundEvents are the driver's
// account of every state transition since the previous Schedule call; an
// incremental scheduler uses them to bound its re-ranking work to the dirty
// set instead of re-solving from scratch.
enum class RoundEventKind : uint8_t {
  kJobArrival,      // job became schedulable for the first time
  kJobDeparture,    // job finished and left the system
  kJobDrop,         // job was dropped (deadline admission) and left the system
  kJobPhaseChange,  // job was preempted or killed (running -> queued)
  kNodeFail,        // devices on a node were marked failed
  kNodeRecover,     // failed devices on a node returned to service
  kSlowdownChange,  // a node's straggler factor changed
};

struct RoundEvent {
  RoundEventKind kind = RoundEventKind::kJobArrival;
  int64_t job_id = -1;              // job events only
  int node_id = -1;                 // node events only
  GpuType gpu_type = GpuType::kA100;  // node events: the node's GPU type
  double slowdown = 1.0;            // kSlowdownChange: the new factor

  static RoundEvent JobArrival(int64_t id) { return {RoundEventKind::kJobArrival, id}; }
  static RoundEvent JobDeparture(int64_t id) { return {RoundEventKind::kJobDeparture, id}; }
  static RoundEvent JobDrop(int64_t id) { return {RoundEventKind::kJobDrop, id}; }
  static RoundEvent JobPhaseChange(int64_t id) { return {RoundEventKind::kJobPhaseChange, id}; }
  static RoundEvent NodeFail(int node, GpuType type) {
    return {RoundEventKind::kNodeFail, -1, node, type};
  }
  static RoundEvent NodeRecover(int node, GpuType type) {
    return {RoundEventKind::kNodeRecover, -1, node, type};
  }
  static RoundEvent SlowdownChange(int node, GpuType type, double factor) {
    return {RoundEventKind::kSlowdownChange, -1, node, type, factor};
  }

  // True for the cluster-health kinds (the ones that move Cluster::health_epoch).
  bool is_health_event() const {
    return kind == RoundEventKind::kNodeFail || kind == RoundEventKind::kNodeRecover ||
           kind == RoundEventKind::kSlowdownChange;
  }
};

// One scheduling round's input: the time, the schedulable jobs (queued +
// running, no id twice), the cluster, and the events since the previous
// round.
//
// Event contract: `events` must be a COMPLETE account of the job and
// cluster-health transitions since this scheduler's previous Schedule call --
// in particular, every mutation that moved Cluster::health_epoch() must be
// covered by a health event. A caller that cannot guarantee completeness
// (tests, ad-hoc drivers) simply passes no events: an incremental scheduler
// that observes an epoch change with an empty-handed delta falls back to a
// full recompute, which is always correct.
class RoundContext {
 public:
  RoundContext(double now, std::vector<const JobState*> jobs, const Cluster& cluster,
               std::vector<RoundEvent> events = {})
      : now_(now), jobs_(std::move(jobs)), cluster_(&cluster), events_(std::move(events)) {}

  double now() const { return now_; }
  const std::vector<const JobState*>& jobs() const { return jobs_; }
  const Cluster& cluster() const { return *cluster_; }
  const std::vector<RoundEvent>& events() const { return events_; }

  // True if any event reports a cluster-health change (fail/recover/slowdown).
  bool has_health_events() const;

 private:
  double now_ = 0.0;
  std::vector<const JobState*> jobs_;
  const Cluster* cluster_ = nullptr;
  std::vector<RoundEvent> events_;
};

class Scheduler {
 public:
  explicit Scheduler(PerformanceOracle* oracle) : oracle_(oracle) {}
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // Computes the target placement of all round.jobs() (queued + running)
  // given the cluster's total capacity. The returned assignments must respect
  // per-type capacity, and no job may appear in both `assignments` and
  // `dropped`; the simulator validates.
  virtual ScheduleDecision Schedule(const RoundContext& round) = 0;

  // One-time profiling delay charged when `job` first becomes schedulable
  // (§8.2: Crius profiles Cells on a single GPU, bounded by 30 minutes).
  // Baselines profile during execution; they return 0.
  virtual double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) {
    (void)job;
    (void)cluster;
    return 0.0;
  }

 protected:
  PerformanceOracle* oracle_;
};

// Reference throughput used to normalize a job's contribution to cluster
// throughput: its ground-truth adaptive throughput on the requested GPUs of
// the requested type (falling back to the best type if infeasible there).
double ReferenceThroughput(PerformanceOracle& oracle, const Cluster& cluster,
                           const TrainingJob& job);

}  // namespace crius

#endif  // SRC_SCHED_SCHEDULER_H_
