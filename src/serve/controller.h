// Cluster-controller round loop: the long-running core of crius_serve.
//
// One controller thread owns a SimEngine and is the only thread that touches
// it. Ingress threads (socket handlers, bench clients) go through two
// thread-safe surfaces instead:
//
//   * the EventQueue (Submit/Cancel/FailNode/RecoverNode/Shutdown), which
//     applies admission control and hands commands to the round loop, and
//   * a mutex-guarded snapshot (Query/GetStats) the loop refreshes each tick.
//
// Each tick the loop drains the ingress FIFO into a reusable batch buffer
// (src/serve/event_queue.h), advances the session's virtual clock by
// tick_virtual_seconds, stamps every drained command with the new virtual
// time, applies it to the engine (TryAddJob / InjectCancel / InjectFailure)
// in arrival order, appends it to the session log, and calls
// SimEngine::AdvanceTo(now). The engine's lazy stepping (src/sim/engine.h)
// guarantees that the resulting decision sequence is bit-identical to
// replaying the session log through the batch simulator, provided the
// session ends with a drain (the protocol `shutdown` command's default). A
// signal-initiated stop flushes and exits WITHOUT draining; such a truncated
// session is still a valid log but its replay runs past the point where the
// live session stopped.
//
// Wall-clock decision latency (ingress enqueue -> applied at tick) is
// recorded per command into the "serve.decision_latency_ms" histogram and
// surfaced as p50/p95/p99 in GetStats.
//
// Each tick is also broken into four instrumented phases -- drain (pop the
// ingress queue), apply (feed commands to the engine), schedule
// (SimEngine::AdvanceTo, where scheduler rounds run), and log (snapshot
// refresh + bookkeeping) -- recorded into the labeled histogram
// "serve.phase_ms{phase=...}" plus the tick total "serve.round_ms" (sleep
// excluded, so the four phases sum to the round within timer granularity)
// and mirrored as Chrome-trace spans. When Config::metrics_csv is set, the
// loop appends a full registry snapshot row every metrics_every_ticks ticks
// (see MetricsCsvWriter).

#ifndef SRC_SERVE_CONTROLLER_H_
#define SRC_SERVE_CONTROLLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/serve/event_queue.h"
#include "src/serve/session_log.h"
#include "src/sim/engine.h"
#include "src/util/metrics_export.h"

namespace crius {

class Controller {
 public:
  struct Config {
    // Virtual seconds the session clock advances per tick.
    double tick_virtual_seconds = 60.0;
    // Wall-clock pause between ticks (the daemon's poll cadence).
    double tick_wall_seconds = 0.02;
    // When non-empty, append a metrics-registry snapshot row to this CSV
    // every metrics_every_ticks ticks (and once more on loop exit).
    std::string metrics_csv;
    int metrics_every_ticks = 10;
    EventQueueConfig queue;
  };

  struct SubmitResult {
    bool ok = false;
    int64_t job_id = -1;
    RejectReason reason = RejectReason::kNone;
  };

  struct JobStatus {
    bool known = false;
    // accepted | queued | running | finished | dropped | infeasible
    std::string state;
    double submit_time = -1.0;
    double first_start = -1.0;
    double finish_time = -1.0;
    int restarts = 0;
  };

  struct Stats {
    double virtual_now = 0.0;
    uint64_t ticks = 0;
    int live_jobs = 0;
    int running_jobs = 0;
    int queued_jobs = 0;
    uint64_t accepted = 0;
    uint64_t infeasible = 0;
    // Wall-clock ingress->applied latency over every consumed command.
    uint64_t decisions = 0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    // Sourced from the metrics registry / queue at GetStats time, not
    // hand-maintained: ingress commands currently waiting for the round
    // loop, wall seconds since Start(), and admission rejections by reason
    // (machine-readable RejectReasonName tokens, counts > 0 only).
    int queue_depth = 0;
    double uptime_seconds = 0.0;
    std::vector<std::pair<std::string, int64_t>> rejected_by_reason;
  };

  // `scheduler` and `oracle` must outlive the controller; `log` may be null
  // (no session recording; replay is then impossible).
  Controller(const Cluster& cluster, SimConfig sim_config, Scheduler& scheduler,
             PerformanceOracle& oracle, SessionLog* log, Config config);
  ~Controller();

  // Launches the round loop. Call once.
  void Start();
  // Blocks until the loop exited (protocol shutdown or signal).
  void Join();
  bool done() const { return done_.load(std::memory_order_acquire); }
  // True when the loop was stopped by a signal instead of a protocol
  // shutdown; the session was then NOT drained.
  bool interrupted() const { return interrupted_.load(std::memory_order_acquire); }

  // --- Ingress (any thread) --------------------------------------------------
  // Admission-checks and enqueues; assigns the job id returned to the client.
  SubmitResult Submit(TrainingJob job);
  std::optional<RejectReason> Cancel(int64_t job_id);
  std::optional<RejectReason> FailNode(int node_id);
  std::optional<RejectReason> RecoverNode(int node_id);
  std::optional<RejectReason> Shutdown(bool drain);

  // --- Snapshot (any thread) -------------------------------------------------
  JobStatus Query(int64_t job_id) const;
  Stats GetStats() const;

  // After Join(): settles the engine and returns the SimResult (decision
  // CSVs). Call at most once.
  SimResult TakeResult();

 private:
  // Enqueues `cmd`; on success bumps the counter named `accepted_counter`,
  // if one is given.
  std::optional<RejectReason> Push(ServeCommand cmd, const char* accepted_counter = nullptr);
  void RunLoop();
  void ApplyCommand(const ServeCommand& cmd);
  void RefreshSnapshot();
  void MaybeAppendMetricsCsv(bool force);

  const Config config_;
  const int num_nodes_;
  SimEngine engine_;
  SessionLog* log_;
  EventQueue queue_;
  // Per-tick drain batch (controller-thread only); it trades buffers with the
  // queue at each drain, so the steady-state drain phase never allocates.
  std::vector<ServeCommand> drain_buf_;
  std::optional<MetricsCsvWriter> metrics_csv_;

  std::thread thread_;
  std::chrono::steady_clock::time_point start_wall_{};
  std::atomic<bool> started_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> interrupted_{false};
  std::atomic<int64_t> next_job_id_{1};

  // Controller-thread only.
  double virtual_now_ = 0.0;
  bool drain_on_shutdown_ = true;
  std::vector<int64_t> active_ids_;

  // Guards everything below (ingress bookkeeping + tick snapshot).
  mutable std::mutex state_mu_;
  std::unordered_map<int64_t, JobStatus> statuses_;
  std::vector<double> latencies_ms_;
  Stats stats_;
};

}  // namespace crius

#endif  // SRC_SERVE_CONTROLLER_H_
