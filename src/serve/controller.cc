#include "src/serve/controller.h"

#include <algorithm>
#include <chrono>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/shutdown.h"
#include "src/util/stats.h"
#include "src/util/trace.h"

namespace crius {

namespace {

const char* PhaseName(JobPhase phase) {
  switch (phase) {
    case JobPhase::kQueued:
      return "queued";
    case JobPhase::kRunning:
      return "running";
    case JobPhase::kFinished:
      return "finished";
    case JobPhase::kDropped:
      return "dropped";
  }
  return "unknown";
}

}  // namespace

Controller::Controller(const Cluster& cluster, SimConfig sim_config, Scheduler& scheduler,
                       PerformanceOracle& oracle, SessionLog* log, Config config)
    : config_(config),
      num_nodes_(static_cast<int>(cluster.nodes().size())),
      engine_(cluster, std::move(sim_config), scheduler, oracle),
      log_(log),
      queue_(config.queue) {
  CRIUS_CHECK_MSG(config_.tick_virtual_seconds > 0.0, "tick_virtual_seconds must be > 0");
  CRIUS_CHECK_MSG(config_.tick_wall_seconds >= 0.0, "tick_wall_seconds must be >= 0");
  CRIUS_CHECK_MSG(config_.metrics_every_ticks > 0, "metrics_every_ticks must be > 0");
  if (!config_.metrics_csv.empty()) {
    metrics_csv_.emplace(config_.metrics_csv);
  }
}

Controller::~Controller() {
  if (started_.load(std::memory_order_acquire) && thread_.joinable()) {
    // Last-resort stop so a crashed owner does not hang the process; normal
    // teardown goes through Shutdown() + Join().
    Push({.kind = ServeCommand::Kind::kShutdown, .drain = false});
    thread_.join();
  }
}

void Controller::Start() {
  CRIUS_CHECK_MSG(!started_.exchange(true), "Controller::Start called twice");
  // Recorded synchronously, before the tick thread exists, so a `metrics`
  // request issued right after Start() never sees an empty registry.
  CRIUS_COUNTER_INC("serve.controller_starts");
  start_wall_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { RunLoop(); });
}

void Controller::Join() {
  CRIUS_CHECK_MSG(started_.load(std::memory_order_acquire), "Controller was never started");
  if (thread_.joinable()) {
    thread_.join();
  }
}

Controller::SubmitResult Controller::Submit(TrainingJob job) {
  SubmitResult result;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kSubmit;
  cmd.job = job;
  if (auto reject = queue_.TryPush(std::move(cmd)); reject.has_value()) {
    result.reason = *reject;
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    JobStatus status;
    status.known = true;
    status.state = "accepted";
    statuses_[job.id] = status;
    ++stats_.accepted;
  }
  CRIUS_COUNTER_INC("serve.submits");
  result.ok = true;
  result.job_id = job.id;
  return result;
}

std::optional<RejectReason> Controller::Cancel(int64_t job_id) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (statuses_.count(job_id) == 0) {
      return RejectReason::kUnknownJob;
    }
  }
  return Push({.kind = ServeCommand::Kind::kCancel, .job_id = job_id}, "serve.cancels");
}

std::optional<RejectReason> Controller::FailNode(int node_id) {
  if (node_id < 0 || node_id >= num_nodes_) {
    return RejectReason::kBadRequest;
  }
  return Push({.kind = ServeCommand::Kind::kFailNode, .node_id = node_id}, "serve.fail_nodes");
}

std::optional<RejectReason> Controller::RecoverNode(int node_id) {
  if (node_id < 0 || node_id >= num_nodes_) {
    return RejectReason::kBadRequest;
  }
  return Push({.kind = ServeCommand::Kind::kRecoverNode, .node_id = node_id},
              "serve.recover_nodes");
}

std::optional<RejectReason> Controller::Shutdown(bool drain) {
  return Push({.kind = ServeCommand::Kind::kShutdown, .drain = drain});
}

std::optional<RejectReason> Controller::Push(ServeCommand cmd, const char* accepted_counter) {
  std::optional<RejectReason> reject = queue_.TryPush(std::move(cmd));
  if (!reject.has_value() && accepted_counter != nullptr) {
    CounterRegistry::Global().GetCounter(accepted_counter).Add(1);
  }
  return reject;
}

Controller::JobStatus Controller::Query(int64_t job_id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = statuses_.find(job_id);
  if (it == statuses_.end()) {
    return JobStatus{};
  }
  return it->second;
}

Controller::Stats Controller::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats = stats_;
    stats.decisions = latencies_ms_.size();
    if (!latencies_ms_.empty()) {
      stats.latency_p50_ms = Percentile(latencies_ms_, 50.0);
      stats.latency_p95_ms = Percentile(latencies_ms_, 95.0);
      stats.latency_p99_ms = Percentile(latencies_ms_, 99.0);
    }
  }
  // Live values come from the queue and the metrics registry rather than
  // hand-maintained fields, so the stats verb and the metrics scrape can
  // never disagree.
  stats.queue_depth = static_cast<int>(queue_.size());
  if (started_.load(std::memory_order_acquire)) {
    stats.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_wall_).count();
  }
  const CounterRegistry& registry = CounterRegistry::Global();
  // Every reason EventQueue counts, so a new reason cannot go missing here.
  for (size_t i = 0; i < kNumRejectReasons; ++i) {
    const std::string name = RejectReasonName(static_cast<RejectReason>(i));
    const int64_t count = registry.CounterValue(
        CanonicalMetricName("serve.ingress.rejected_by_reason", {{"reason", name}}));
    if (count > 0) {
      stats.rejected_by_reason.emplace_back(name, count);
    }
  }
  return stats;
}

SimResult Controller::TakeResult() {
  CRIUS_CHECK_MSG(done(), "TakeResult before the controller loop exited");
  return engine_.Finish();
}

void Controller::ApplyCommand(const ServeCommand& cmd) {
  switch (cmd.kind) {
    case ServeCommand::Kind::kSubmit: {
      TrainingJob job = cmd.job;
      job.submit_time = virtual_now_;
      if (engine_.TryAddJob(job)) {
        if (log_ != nullptr) {
          log_->AppendSubmit(virtual_now_, job);
        }
        active_ids_.push_back(job.id);
      } else {
        // Fits no GPU type: never reaches the engine or the log (the batch
        // replay path aborts on infeasible jobs). The owner sees the verdict
        // via query.
        CRIUS_COUNTER_INC("serve.infeasible");
        std::lock_guard<std::mutex> lock(state_mu_);
        statuses_[job.id].state = "infeasible";
        ++stats_.infeasible;
      }
      break;
    }
    case ServeCommand::Kind::kCancel:
      engine_.InjectCancel(virtual_now_, cmd.job_id);
      if (log_ != nullptr) {
        log_->AppendCancel(virtual_now_, cmd.job_id);
      }
      break;
    case ServeCommand::Kind::kFailNode: {
      FailureEvent e;
      e.time = virtual_now_;
      e.kind = FailureKind::kNodeFail;
      e.node_id = cmd.node_id;
      engine_.InjectFailure(e);
      if (log_ != nullptr) {
        log_->AppendFailNode(virtual_now_, cmd.node_id);
      }
      break;
    }
    case ServeCommand::Kind::kRecoverNode: {
      FailureEvent e;
      e.time = virtual_now_;
      e.kind = FailureKind::kNodeRecover;
      e.node_id = cmd.node_id;
      engine_.InjectFailure(e);
      if (log_ != nullptr) {
        log_->AppendRecoverNode(virtual_now_, cmd.node_id);
      }
      break;
    }
    case ServeCommand::Kind::kShutdown:
      // Handled by the loop (needs to break out); nothing to apply.
      break;
  }
}

void Controller::RefreshSnapshot() {
  // Per-job statuses from the engine, and the queued-wait feedback for the
  // starvation guard. active_ids_ only holds jobs the engine accepted;
  // finished/dropped ones are retired from the scan (their status is final).
  double oldest_wait = 0.0;
  std::vector<std::pair<int64_t, JobStatus>> updates;
  updates.reserve(active_ids_.size());
  size_t kept = 0;
  for (int64_t id : active_ids_) {
    const JobState* state = engine_.FindJob(id);
    if (state == nullptr) {
      continue;
    }
    JobStatus status;
    status.known = true;
    status.state = PhaseName(state->phase);
    status.submit_time = state->job.submit_time;
    status.first_start = state->first_start;
    status.finish_time = state->finish_time;
    status.restarts = state->num_restarts;
    updates.emplace_back(id, status);
    const bool final_phase =
        state->phase == JobPhase::kFinished || state->phase == JobPhase::kDropped;
    if (!final_phase) {
      active_ids_[kept++] = id;
      if (state->phase == JobPhase::kQueued) {
        oldest_wait = std::max(oldest_wait, virtual_now_ - state->job.submit_time);
      }
    }
  }
  active_ids_.resize(kept);

  Stats stats;
  stats.virtual_now = virtual_now_;
  stats.live_jobs = engine_.LiveJobs();
  stats.running_jobs = engine_.RunningJobs();
  stats.queued_jobs = engine_.QueuedJobs();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (auto& [id, status] : updates) {
      statuses_[id] = std::move(status);
    }
    stats_.virtual_now = stats.virtual_now;
    stats_.live_jobs = stats.live_jobs;
    stats_.running_jobs = stats.running_jobs;
    stats_.queued_jobs = stats.queued_jobs;
    ++stats_.ticks;
  }
  ClusterView view;
  view.queued_jobs = stats.queued_jobs;
  view.oldest_wait = oldest_wait;
  view.projected_watts = engine_.ProjectedDrawWatts();
  queue_.PublishClusterView(view);
}

void Controller::MaybeAppendMetricsCsv(bool force) {
  if (!metrics_csv_.has_value()) {
    return;
  }
  uint64_t ticks = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ticks = stats_.ticks;
  }
  if (force || ticks % static_cast<uint64_t>(config_.metrics_every_ticks) == 0) {
    metrics_csv_->Append(virtual_now_, CounterRegistry::Global().Snapshot());
  }
}

void Controller::RunLoop() {
  // Resolved once per loop; labeled entries bypass the static-entry macros.
  CounterRegistry& registry = CounterRegistry::Global();
  Histogram& drain_ms = registry.GetHistogram("serve.phase_ms", {{"phase", "drain"}});
  Histogram& apply_ms = registry.GetHistogram("serve.phase_ms", {{"phase", "apply"}});
  Histogram& schedule_ms = registry.GetHistogram("serve.phase_ms", {{"phase", "schedule"}});
  Histogram& log_ms = registry.GetHistogram("serve.phase_ms", {{"phase", "log"}});
  Histogram& round_ms = registry.GetHistogram("serve.round_ms");
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  while (true) {
    if (ShutdownRequested()) {
      // Signal-initiated stop: flush what we have, do NOT drain -- the
      // session log stays valid but marks a truncated (non-replayable to the
      // end) session.
      interrupted_.store(true, std::memory_order_release);
      break;
    }
    CRIUS_TRACE_SPAN("serve.tick");
    CRIUS_COUNTER_INC("serve.ticks");
    // Phase 1/4 "drain": take the queued commands, in arrival order, into
    // the reusable batch buffer (see EventQueue::DrainInto).
    const auto t_round = Clock::now();
    {
      CRIUS_TRACE_SPAN("serve.phase.drain");
      queue_.DrainInto(&drain_buf_);
    }
    const auto t_drained = Clock::now();
    drain_ms.Record(ms_between(t_round, t_drained));
    virtual_now_ += config_.tick_virtual_seconds;
    bool shutdown = false;
    // Phase 2/4 "apply": stamp and feed drained commands to the engine.
    {
      CRIUS_TRACE_SPAN("serve.phase.apply");
      for (const ServeCommand& cmd : drain_buf_) {
        if (cmd.kind == ServeCommand::Kind::kShutdown) {
          shutdown = true;
          drain_on_shutdown_ = cmd.drain;
          continue;
        }
        ApplyCommand(cmd);
        const double latency_ms = ms_between(cmd.enqueue_wall, t_drained);
        CRIUS_HISTOGRAM_RECORD("serve.decision_latency_ms", latency_ms);
        std::lock_guard<std::mutex> lock(state_mu_);
        latencies_ms_.push_back(latency_ms);
      }
    }
    const auto t_applied = Clock::now();
    apply_ms.Record(ms_between(t_drained, t_applied));
    // Phase 3/4 "schedule": advance the engine (scheduler rounds run here).
    {
      CRIUS_TRACE_SPAN("serve.advance");
      engine_.AdvanceTo(virtual_now_);
    }
    const auto t_scheduled = Clock::now();
    schedule_ms.Record(ms_between(t_applied, t_scheduled));
    // Phase 4/4 "log": snapshot refresh + periodic metrics row.
    {
      CRIUS_TRACE_SPAN("serve.phase.log");
      RefreshSnapshot();
      CRIUS_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_.size()));
      CRIUS_GAUGE_SET("serve.virtual_now", virtual_now_);
      MaybeAppendMetricsCsv(false);
    }
    const auto t_logged = Clock::now();
    log_ms.Record(ms_between(t_scheduled, t_logged));
    // Round total excludes the inter-tick sleep, so
    // sum(serve.phase_ms{*}) == serve.round_ms up to timer granularity.
    round_ms.Record(ms_between(t_round, t_logged));
    if (shutdown) {
      if (drain_on_shutdown_) {
        CRIUS_TRACE_SPAN("serve.drain");
        engine_.Drain();
        // A signal during the drain leaves the session un-drained.
        interrupted_.store(ShutdownRequested(), std::memory_order_release);
        virtual_now_ = std::max(virtual_now_, engine_.now());
        RefreshSnapshot();
      }
      break;
    }
    if (config_.tick_wall_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(config_.tick_wall_seconds));
    }
  }
  MaybeAppendMetricsCsv(true);
  if (log_ != nullptr) {
    log_->Flush();
  }
  done_.store(true, std::memory_order_release);
}

}  // namespace crius
