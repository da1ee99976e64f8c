// Sharded, lock-free command path between the ingress threads and the
// controller's round loop, with admission control.
//
// Ingress (socket handler threads, bench client threads) calls TryPush; the
// controller drains every shard once per tick and publishes back an
// epoch-stamped view of the cluster (PublishClusterView) that the admission
// checks read. All admission policy lives here so it is unit-testable
// without sockets or a controller:
//
//   * kQueueFull         -- the command's ingress shard is at capacity
//                           (backpressure: the controller is not keeping up).
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
// Sharding and the deterministic merge
// ------------------------------------
// The hot path is lock-free: every command is routed by its job/class key to
// one of kRoutes logical routes (route = hash(key) % kRoutes), claims a
// per-route monotone sequence number, is stamped with the published view's
// virtual time, and is pushed into the MPSC ring of the physical shard that
// owns the route (route % shards). The controller's drain phase pops every
// ring and merges the batch by the (virtual-time, route, seq) key. None of
// those three stamps depends on the physical shard count, so for the same
// ingress sequence the merged — and therefore applied, logged, and replayed —
// command order is bit-identical across --shards 1/2/8 (EventQueueTest and
// the ext_serve --determinism gate check it). Commands that share a route
// (all commands of one job; all health events of one node) keep their arrival
// order via the per-route seq.
//
// The cluster view is epoch-published: the controller bumps an epoch counter
// and stores the new queued-jobs / oldest-wait / virtual-now fields as plain
// atomics (the same generation-stamping idea as Cluster::health_epoch).
// Admission reads them without any lock; a torn read across fields can only
// mis-route one admission decision by one tick, which the policy tolerates by
// design.

#ifndef SRC_SERVE_EVENT_QUEUE_H_
#define SRC_SERVE_EVENT_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/model/job.h"
#include "src/util/mpsc_ring.h"

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

// Stable machine-readable token ("queue_full", ...) used in protocol error
// responses and counters.
const char* RejectReasonName(RejectReason reason);

// One external command, as queued for the controller.
struct ServeCommand {
  enum class Kind : uint8_t { kSubmit, kCancel, kFailNode, kRecoverNode, kShutdown };

  Kind kind = Kind::kSubmit;
  TrainingJob job;    // kSubmit (id already assigned by the controller)
  int64_t job_id = -1;  // kCancel
  int node_id = -1;     // kFailNode / kRecoverNode
  bool drain = true;    // kShutdown: drain the system before exiting?

  // Assigned by TryPush; together the deterministic merge key. `route` is the
  // logical shard (stable under any physical shard count), `seq` the
  // per-route monotone sequence, `vt_stamp` the published virtual time at
  // admission.
  uint32_t route = 0;
  uint64_t seq = 0;
  double vt_stamp = 0.0;
  // Ingress wall time (decision latency = applied-at-tick wall time minus
  // this).
  std::chrono::steady_clock::time_point enqueue_wall{};
};

struct EventQueueConfig {
  // Total command-queue capacity (backpressure bound), split evenly across
  // shards (each shard gets ceil(capacity / shards) slots, enforced exactly).
  size_t capacity = 256;
  // Physical ingress shards (one lock-free MPSC ring each).
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
  double virtual_now = 0.0;
  int queued_jobs = 0;
  double oldest_wait = 0.0;
  bool shutting_down = false;
  // Instantaneous cluster draw from the engine's power ledger; 0.0 when power
  // accounting is off.
  double projected_watts = 0.0;
};

class EventQueue {
 public:
  // Logical routes; fixed so the merge key never depends on the physical
  // shard count.
  static constexpr size_t kRoutes = 64;

  explicit EventQueue(EventQueueConfig config);

  // Admission-checks and enqueues `cmd`. Returns std::nullopt on success
  // (cmd.route / cmd.seq / cmd.vt_stamp / cmd.enqueue_wall were stamped), or
  // the rejection reason. Lock-free; safe from any thread.
  std::optional<RejectReason> TryPush(ServeCommand cmd);

  // Pops every queued command from every shard and appends the batch to
  // *out in deterministic (vt_stamp, route, seq) merge order; a pending
  // shutdown is delivered once, at the end of the batch. Reuses out's
  // capacity (clear it between ticks to avoid re-applying old commands).
  // Controller-thread only: single consumer.
  size_t DrainInto(std::vector<ServeCommand>* out);

  // Convenience wrapper for tests; allocates a fresh batch per call.
  std::vector<ServeCommand> Drain();

  // Controller feedback after each tick. Epoch-published: bumps view_epoch()
  // and stores the fields lock-free. Shutdown latches: once requested (via
  // the view or a kShutdown push) it is never un-requested.
  void PublishClusterView(const ClusterView& view);

  // Approximate total backlog across shards (racy while producers run).
  size_t size() const;
  // Approximate depth of one physical shard (for the per-shard gauges).
  size_t shard_depth(size_t shard) const;
  size_t shards() const { return rings_.size(); }
  uint64_t view_epoch() const { return view_epoch_.load(std::memory_order_relaxed); }
  const EventQueueConfig& config() const { return config_; }

 private:
  uint32_t RouteOf(const ServeCommand& cmd) const;

  const EventQueueConfig config_;
  std::vector<std::unique_ptr<MpscRing<ServeCommand>>> rings_;
  std::atomic<uint64_t> route_seq_[kRoutes] = {};

  // Epoch-published cluster view (all relaxed atomics; see header comment).
  std::atomic<uint64_t> view_epoch_{0};
  std::atomic<double> view_virtual_now_{0.0};
  std::atomic<int> view_queued_jobs_{0};
  std::atomic<double> view_oldest_wait_{0.0};
  std::atomic<double> view_projected_watts_{0.0};
  std::atomic<bool> shutting_down_{false};

  // Shutdown delivery: pushes latch shutting_down_ and bump the push count;
  // the drain phase appends one synthesized kShutdown command per undelivered
  // push (consumer-side counter, controller thread only).
  std::atomic<uint64_t> shutdown_pushes_{0};
  std::atomic<bool> shutdown_drain_{true};
  uint64_t shutdown_delivered_ = 0;

  // Hot-path metric entries, resolved once (the registry lookup takes a
  // mutex; the push path must not).
  Counter* accepted_counter_;
  Counter* rejected_counter_;
  Counter* rejected_by_reason_[9];
  Histogram* push_ns_;
  Histogram* merge_ms_;
};

}  // namespace crius

#endif  // SRC_SERVE_EVENT_QUEUE_H_
