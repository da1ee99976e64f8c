#include "src/sim/chrome_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace crius {

namespace {

constexpr double kUsPerSecond = 1e6;

std::string RoundArgs(const ThroughputSample& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"running\": %d, \"queued\": %d, \"busy_gpus\": %d}", s.running_jobs,
                s.queued_jobs, s.busy_gpus);
  return buf;
}

}  // namespace

void AppendSimTrace(const SimResult& result, TraceRecorder& recorder) {
  // Observed horizon: the latest event, sample, or job time.
  double end = 0.0;
  for (const SimEvent& e : result.events) {
    end = std::max(end, e.time);
  }
  for (const ThroughputSample& s : result.timeline) {
    end = std::max(end, s.time);
  }
  for (const JobRecord& r : result.jobs) {
    end = std::max({end, r.submit, r.finish, r.last_event});
  }

  // --- Scheduler-round track (one span per round sample) --------------------
  if (!result.timeline.empty()) {
    const int rounds = recorder.Track(TraceRecorder::kSimPid, "scheduler rounds");
    for (size_t i = 0; i < result.timeline.size(); ++i) {
      const ThroughputSample& s = result.timeline[i];
      const double next =
          i + 1 < result.timeline.size() ? result.timeline[i + 1].time : end;
      recorder.CompleteEvent(rounds, "round " + std::to_string(i), s.time * kUsPerSecond,
                             std::max(0.0, next - s.time) * kUsPerSecond, RoundArgs(s));
    }
  }

  // --- Cluster counter series ------------------------------------------------
  if (!result.timeline.empty()) {
    const int cluster = recorder.Track(TraceRecorder::kSimPid, "cluster");
    for (const ThroughputSample& s : result.timeline) {
      const double ts = s.time * kUsPerSecond;
      recorder.CounterEvent(cluster, "running_jobs", ts, s.running_jobs);
      recorder.CounterEvent(cluster, "queued_jobs", ts, s.queued_jobs);
      recorder.CounterEvent(cluster, "busy_gpus", ts, s.busy_gpus);
      recorder.CounterEvent(cluster, "usable_gpus", ts, s.usable_gpus);
      recorder.CounterEvent(cluster, "normalized_throughput", ts, s.normalized_throughput);
    }
  }

  // --- Power track (src/power; only when power accounting ran) ---------------
  if (result.power_enabled && !result.timeline.empty()) {
    const int power = recorder.Track(TraceRecorder::kSimPid, "power");
    for (const ThroughputSample& s : result.timeline) {
      recorder.CounterEvent(power, "draw_watts", s.time * kUsPerSecond, s.power_watts);
    }
  }

  // --- Per-job tracks (reconstructed from the event log) --------------------
  if (result.events.empty()) {
    return;  // record_events was off; only the aggregate tracks exist
  }
  // Cluster-health kinds carry a *node* id in job_id and get their own track
  // below; mixing them into the per-job reconstruction would corrupt the jobs
  // whose ids collide with node ids.
  std::map<int64_t, std::vector<const SimEvent*>> by_job;
  std::vector<const SimEvent*> health;
  for (const SimEvent& e : result.events) {
    if (SimEvent::IsClusterKind(e.kind)) {
      health.push_back(&e);
    } else {
      by_job[e.job_id].push_back(&e);
    }
  }

  // --- Cluster-health track (node-down and straggler windows) ----------------
  if (!health.empty()) {
    const int track = recorder.Track(TraceRecorder::kSimPid, "cluster health");
    // Per-node open window start times; -1 when the node is healthy.
    std::map<int64_t, double> down_since;
    std::map<int64_t, std::pair<double, std::string>> straggling_since;
    for (const SimEvent* e : health) {
      const std::string node = "node " + std::to_string(e->job_id);
      switch (e->kind) {
        case SimEvent::Kind::kNodeFail:
          recorder.InstantEvent(track, node + " fail " + e->placement,
                                e->time * kUsPerSecond);
          down_since.emplace(e->job_id, e->time);  // keep the first failure time
          break;
        case SimEvent::Kind::kNodeRecover: {
          const auto it = down_since.find(e->job_id);
          if (it != down_since.end()) {
            recorder.CompleteEvent(track, node + " down", it->second * kUsPerSecond,
                                   (e->time - it->second) * kUsPerSecond);
            down_since.erase(it);
          }
          break;
        }
        case SimEvent::Kind::kStragglerStart:
          straggling_since[e->job_id] = {e->time, e->placement};
          break;
        case SimEvent::Kind::kStragglerEnd: {
          const auto it = straggling_since.find(e->job_id);
          if (it != straggling_since.end()) {
            recorder.CompleteEvent(track, node + " straggler " + it->second.second,
                                   it->second.first * kUsPerSecond,
                                   (e->time - it->second.first) * kUsPerSecond);
            straggling_since.erase(it);
          }
          break;
        }
        default:
          break;
      }
    }
    // Windows still open at the horizon.
    for (const auto& [node_id, since] : down_since) {
      recorder.CompleteEvent(track, "node " + std::to_string(node_id) + " down",
                             since * kUsPerSecond, (end - since) * kUsPerSecond);
    }
    for (const auto& [node_id, open] : straggling_since) {
      recorder.CompleteEvent(track, "node " + std::to_string(node_id) + " straggler " + open.second,
                             open.first * kUsPerSecond, (end - open.first) * kUsPerSecond);
    }
  }
  for (const JobRecord& r : result.jobs) {
    const int track = recorder.Track(TraceRecorder::kSimPid, "job " + std::to_string(r.id));
    double open_since = r.submit;
    bool open = true;
    std::string span_name = "queued";
    std::string span_args;
    auto close_span = [&](double t) {
      if (open && t > open_since) {
        recorder.CompleteEvent(track, span_name, open_since * kUsPerSecond,
                               (t - open_since) * kUsPerSecond, span_args);
      }
    };
    for (const SimEvent* e : by_job[r.id]) {
      switch (e->kind) {
        case SimEvent::Kind::kStart:
        case SimEvent::Kind::kRestart:
        case SimEvent::Kind::kMigrate:
          close_span(e->time);
          if (e->kind == SimEvent::Kind::kRestart) {
            recorder.InstantEvent(track, "restart", e->time * kUsPerSecond);
          } else if (e->kind == SimEvent::Kind::kMigrate) {
            recorder.InstantEvent(track, "migrate", e->time * kUsPerSecond);
          }
          open = true;
          open_since = e->time;
          span_name = "run " + e->placement;
          span_args = "{\"placement\": \"" + e->placement + "\"}";
          break;
        case SimEvent::Kind::kPreempt:
        case SimEvent::Kind::kFailureKill:
          close_span(e->time);
          recorder.InstantEvent(
              track, e->kind == SimEvent::Kind::kFailureKill ? "failure kill" : "preempt",
              e->time * kUsPerSecond);
          open = true;
          open_since = e->time;
          span_name = "queued";
          span_args.clear();
          break;
        case SimEvent::Kind::kFinish:
          close_span(e->time);
          open = false;
          break;
        case SimEvent::Kind::kDrop:
        case SimEvent::Kind::kCancel:
          close_span(e->time);
          recorder.InstantEvent(
              track, e->kind == SimEvent::Kind::kCancel ? "cancel" : "drop",
              e->time * kUsPerSecond);
          open = false;
          break;
        default:
          break;  // cluster-health kinds were filtered out above
      }
    }
    // Jobs still live at the horizon keep their open span to the end.
    close_span(end);
  }
}

}  // namespace crius
