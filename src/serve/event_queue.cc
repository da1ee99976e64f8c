#include "src/serve/event_queue.h"

#include <string>
#include <utility>

#include "src/util/check.h"
#include "src/util/counters.h"

namespace crius {

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kClusterSaturated:
      return "cluster_saturated";
    case RejectReason::kStarvationGuard:
      return "starvation_guard";
    case RejectReason::kShuttingDown:
      return "shutting_down";
    case RejectReason::kInfeasible:
      return "infeasible";
    case RejectReason::kUnknownJob:
      return "unknown_job";
    case RejectReason::kBadRequest:
      return "bad_request";
    case RejectReason::kClusterPowerCap:
      return "cluster_power_cap";
  }
  return "unknown";
}

EventQueue::EventQueue(EventQueueConfig config) : config_(config) {
  CRIUS_CHECK_MSG(config_.shards == 1, "EventQueue is one FIFO: shards must be 1");
  CRIUS_CHECK_MSG(config_.capacity >= 1, "EventQueue needs capacity >= 1");
  CounterRegistry& registry = CounterRegistry::Global();
  accepted_counter_ = &registry.GetCounter("serve.ingress.accepted");
  rejected_counter_ = &registry.GetCounter("serve.ingress.rejected");
  for (size_t i = 0; i < kNumRejectReasons; ++i) {
    rejected_by_reason_[i] = &registry.GetCounter(
        "serve.ingress.rejected_by_reason",
        MetricLabels{{"reason", RejectReasonName(static_cast<RejectReason>(i))}});
  }
  push_ns_ = &registry.GetHistogram("serve.ingress.push_ns");
}

std::optional<RejectReason> EventQueue::TryPush(ServeCommand cmd) {
  cmd.enqueue_wall = std::chrono::steady_clock::now();
  std::optional<RejectReason> reject;
  if (cmd.kind == ServeCommand::Kind::kShutdown) {
    // Shutdown must always get through, or a full queue would make the daemon
    // unstoppable: it rides a latch + push counter instead of a queue slot.
    // The latch is set before the counter moves, so a drain that has seen
    // this push also makes every later TryPush see the latch.
    shutdown_drain_.store(cmd.drain, std::memory_order_relaxed);
    shutting_down_.store(true, std::memory_order_release);
    shutdown_pushes_.fetch_add(1, std::memory_order_release);
    accepted_counter_->Add(1);
    return std::nullopt;
  }
  // The cluster-level checks read only the published view, so the reject
  // path under overload never takes the queue lock.
  if (shutting_down_.load(std::memory_order_acquire)) {
    reject = RejectReason::kShuttingDown;
  } else if (cmd.kind == ServeCommand::Kind::kSubmit) {
    if (config_.max_pending_jobs > 0 &&
        view_queued_jobs_.load(std::memory_order_relaxed) >= config_.max_pending_jobs) {
      reject = RejectReason::kClusterSaturated;
    } else if (config_.starvation_wait > 0.0 &&
               view_oldest_wait_.load(std::memory_order_relaxed) > config_.starvation_wait) {
      reject = RejectReason::kStarvationGuard;
    } else if (config_.power_cap_watts > 0.0 &&
               view_projected_watts_.load(std::memory_order_relaxed) >=
                   config_.power_cap_watts) {
      reject = RejectReason::kClusterPowerCap;
    }
  }
  if (!reject.has_value()) {
    const auto t0 = cmd.enqueue_wall;
    bool sample_latency = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Re-checked under the lock: a command is either queued before the
      // drain that delivers a shutdown, or rejected.
      if (shutting_down_.load(std::memory_order_acquire)) {
        reject = RejectReason::kShuttingDown;
      } else if (pending_.size() >= config_.capacity) {
        reject = RejectReason::kQueueFull;
      } else {
        pending_.push_back(std::move(cmd));
        sample_latency = (++pushes_ & 0x3f) == 0;  // 1-in-64, off the hot path
      }
    }
    if (sample_latency) {
      push_ns_->Record(std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  if (reject.has_value()) {
    rejected_counter_->Add(1);
    rejected_by_reason_[static_cast<size_t>(*reject)]->Add(1);
    return reject;
  }
  accepted_counter_->Add(1);
  return std::nullopt;
}

size_t EventQueue::DrainInto(std::vector<ServeCommand>* out) {
  out->clear();
  // Sample the shutdown counter BEFORE taking the batch. A producer that
  // queued a command and then called Shutdown released the queue lock before
  // the counter increment; acquiring the counter first therefore guarantees
  // the swap below sees every command accepted before that shutdown.
  // Sampling after the swap could deliver the shutdown in a batch missing a
  // command queued between the swap and the sample.
  const uint64_t pushes = shutdown_pushes_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(mu_);
    out->swap(pending_);
  }
  // Deliver each pending shutdown push once, after the batch, so the batch's
  // commands are still applied before the loop breaks.
  if (pushes > shutdown_delivered_) {
    shutdown_delivered_ = pushes;
    ServeCommand shutdown;
    shutdown.kind = ServeCommand::Kind::kShutdown;
    shutdown.drain = shutdown_drain_.load(std::memory_order_relaxed);
    shutdown.enqueue_wall = std::chrono::steady_clock::now();
    out->push_back(std::move(shutdown));
  }
  return out->size();
}

void EventQueue::PublishClusterView(const ClusterView& view) {
  view_epoch_.fetch_add(1, std::memory_order_relaxed);
  view_queued_jobs_.store(view.queued_jobs, std::memory_order_relaxed);
  view_oldest_wait_.store(view.oldest_wait, std::memory_order_relaxed);
  view_projected_watts_.store(view.projected_watts, std::memory_order_relaxed);
}

size_t EventQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace crius
