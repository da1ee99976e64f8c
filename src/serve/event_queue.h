// Bounded FIFO command path between the ingress threads and the controller's
// round loop, with admission control.
//
// Ingress (socket handler threads, bench client threads) calls TryPush; the
// controller drains the queue once per tick and publishes back an
// epoch-stamped view of the cluster (PublishClusterView) that the admission
// checks read. All admission policy lives here so it is unit-testable
// without sockets or a controller:
//
//   * kQueueFull         -- the queue holds `capacity` commands (backpressure:
//                           the controller is not keeping up).
//   * kClusterSaturated  -- too many jobs already waiting for GPUs
//                           (max_pending_jobs); admitting more would only
//                           grow the queue, so the submitter is told to back
//                           off with a machine-readable reason instead.
//   * kStarvationGuard   -- the oldest queued job has waited longer than
//                           starvation_wait (virtual seconds, strictly
//                           greater: a wait exactly at the threshold is still
//                           admitted). New work is rejected until the backlog
//                           drains, bounding how long an admitted job can
//                           starve behind a firehose of fresh submissions.
//   * kShuttingDown      -- shutdown was requested; only the shutdown command
//                           itself is still accepted.
//   * kClusterPowerCap   -- the cluster's projected electrical draw (published
//                           from the engine's power ledger, src/power) is at
//                           or above power_cap_watts; submissions are rejected
//                           until load-driven draw falls back under the cap.
//
// Only submissions are subject to the cluster-level checks (saturation and
// starvation); cancels and health commands are operator actions that shrink
// load and are accepted while there is queue space — up until a shutdown has
// been requested, after which the shutdown latch rejects them too (the
// session is ending; the drain phase settles the remaining state).
//
// Order: one mutex-guarded vector. TryPush appends under the lock and
// DrainInto swaps the whole vector out, so the controller applies, logs, and
// (through the session log) replays commands in arrival order.
//
// The cluster view is epoch-published: the controller bumps an epoch counter
// and stores the new queued-jobs / oldest-wait / projected-draw fields as plain
// atomics (the same generation-stamping idea as Cluster::health_epoch).
// Admission reads them without any lock, so the reject path under overload
// never touches the queue mutex; a torn read across fields can only
// mis-route one admission decision by one tick, which the policy tolerates
// by design.

#ifndef SRC_SERVE_EVENT_QUEUE_H_
#define SRC_SERVE_EVENT_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/model/job.h"

namespace crius {

class Counter;
class Histogram;

enum class RejectReason : uint8_t {
  kNone = 0,
  kQueueFull,
  kClusterSaturated,
  kStarvationGuard,
  kShuttingDown,
  kInfeasible,   // job fits no GPU type (reported via query, see controller)
  kUnknownJob,   // cancel/query for an id this session never accepted
  kBadRequest,   // malformed or out-of-range request fields
  kClusterPowerCap,  // projected cluster draw at/over --power-cap-watts
};
inline constexpr size_t kNumRejectReasons =
    static_cast<size_t>(RejectReason::kClusterPowerCap) + 1;

// Stable machine-readable token ("queue_full", ...) used in protocol error
// responses and counters.
const char* RejectReasonName(RejectReason reason);

// One external command, as queued for the controller.
struct ServeCommand {
  enum class Kind : uint8_t { kSubmit, kCancel, kFailNode, kRecoverNode, kShutdown };

  Kind kind = Kind::kSubmit;
  TrainingJob job{};  // kSubmit (id already assigned by the controller)
  int64_t job_id = -1;  // kCancel
  int node_id = -1;     // kFailNode / kRecoverNode
  bool drain = true;    // kShutdown: drain the system before exiting?

  // Ingress wall time, stamped by TryPush (decision latency = applied-at-tick
  // wall time minus this).
  std::chrono::steady_clock::time_point enqueue_wall{};
};

struct EventQueueConfig {
  // Command-queue capacity (backpressure bound), enforced exactly.
  size_t capacity = 256;
  // Must be 1: ingress is one FIFO. The member remains only because existing
  // callers assign it; the constructor rejects any other value.
  size_t shards = 1;
  // Reject submissions while this many jobs already wait for GPUs; 0 = no
  // limit.
  int max_pending_jobs = 0;
  // Reject submissions while the oldest queued job has waited strictly longer
  // than this many virtual seconds; 0 = disabled.
  double starvation_wait = 0.0;
  // Reject submissions while the published projected cluster draw is at or
  // above this many watts; 0 = disabled. Requires power accounting in the
  // engine (the controller enables it when the cap is set).
  double power_cap_watts = 0.0;
};

// The controller's per-tick feedback, published with an epoch stamp and read
// lock-free by every admission check.
struct ClusterView {
  int queued_jobs = 0;
  double oldest_wait = 0.0;
  // Instantaneous cluster draw from the engine's power ledger; 0.0 when power
  // accounting is off.
  double projected_watts = 0.0;
};

class EventQueue {
 public:
  explicit EventQueue(EventQueueConfig config);

  // Admission-checks and enqueues `cmd`. Returns std::nullopt on success
  // (cmd.enqueue_wall was stamped), or the rejection reason. Safe from any
  // thread.
  std::optional<RejectReason> TryPush(ServeCommand cmd);

  // Replaces *out with every queued command in arrival order; a pending
  // shutdown is delivered once, at the end of the batch. *out and the
  // queue swap buffers, so steady-state ticks never allocate. Returns the
  // batch size. Controller-thread only: single consumer.
  size_t DrainInto(std::vector<ServeCommand>* out);

  // Controller feedback after each tick. Epoch-published: bumps view_epoch()
  // and stores the fields lock-free.
  void PublishClusterView(const ClusterView& view);

  // Commands waiting for the next drain.
  size_t size() const;
  uint64_t view_epoch() const { return view_epoch_.load(std::memory_order_relaxed); }

 private:
  const EventQueueConfig config_;

  mutable std::mutex mu_;
  std::vector<ServeCommand> pending_;  // guarded by mu_
  uint64_t pushes_ = 0;                // guarded by mu_; paces push_ns sampling

  // Epoch-published cluster view (all relaxed atomics; see header comment).
  std::atomic<uint64_t> view_epoch_{0};
  std::atomic<int> view_queued_jobs_{0};
  std::atomic<double> view_oldest_wait_{0.0};
  std::atomic<double> view_projected_watts_{0.0};
  std::atomic<bool> shutting_down_{false};

  // Shutdown delivery: pushes latch shutting_down_ (never un-set) and bump
  // the push count; the drain phase appends one synthesized kShutdown command
  // per undelivered push (consumer-side counter, controller thread only).
  std::atomic<uint64_t> shutdown_pushes_{0};
  std::atomic<bool> shutdown_drain_{true};
  uint64_t shutdown_delivered_ = 0;

  // Hot-path metric entries, resolved once (the registry lookup takes a
  // mutex; the push path must not).
  Counter* accepted_counter_;
  Counter* rejected_counter_;
  Counter* rejected_by_reason_[kNumRejectReasons];
  Histogram* push_ns_;
};

}  // namespace crius

#endif  // SRC_SERVE_EVENT_QUEUE_H_
