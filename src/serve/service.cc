#include "src/serve/service.h"

#include <climits>
#include <optional>

#include "src/serve/protocol.h"
#include "src/util/counters.h"
#include "src/util/metrics_export.h"

namespace crius {
namespace serve {

namespace {

std::string FromReject(std::optional<RejectReason> reject) {
  return reject.has_value() ? ErrorResponse(*reject) : OkResponse();
}

std::string HandleSubmit(Controller& controller, const JsonObject& request) {
  TrainingJob job;
  std::string error;
  if (!ParseSubmitJob(request, &job, &error)) {
    return ErrorResponse(RejectReason::kBadRequest, error);
  }
  const Controller::SubmitResult result = controller.Submit(job);
  if (!result.ok) {
    return ErrorResponse(result.reason);
  }
  JsonObject extra;
  extra.Set("job_id", Json::Number(static_cast<double>(result.job_id)));
  extra.Set("status", Json::Str("queued"));
  return OkResponse(std::move(extra));
}

std::string HandleQuery(Controller& controller, const JsonObject& request) {
  int64_t job_id = -1;
  std::string error;
  if (!IntegerField(request, "job_id", -kMaxExactInteger, kMaxExactInteger, -1, &job_id,
                    &error)) {
    return ErrorResponse(RejectReason::kBadRequest, error);
  }
  const Controller::JobStatus status = controller.Query(job_id);
  if (!status.known) {
    return ErrorResponse(RejectReason::kUnknownJob);
  }
  JsonObject extra;
  extra.Set("job_id", Json::Number(static_cast<double>(job_id)));
  extra.Set("status", Json::Str(status.state));
  extra.Set("submit_time", Json::Number(status.submit_time));
  extra.Set("first_start", Json::Number(status.first_start));
  extra.Set("finish_time", Json::Number(status.finish_time));
  extra.Set("restarts", Json::Number(status.restarts));
  return OkResponse(std::move(extra));
}

std::string HandleStats(Controller& controller) {
  const Controller::Stats stats = controller.GetStats();
  JsonObject extra;
  extra.Set("virtual_now", Json::Number(stats.virtual_now));
  extra.Set("ticks", Json::Number(static_cast<double>(stats.ticks)));
  extra.Set("live_jobs", Json::Number(stats.live_jobs));
  extra.Set("running_jobs", Json::Number(stats.running_jobs));
  extra.Set("queued_jobs", Json::Number(stats.queued_jobs));
  extra.Set("accepted", Json::Number(static_cast<double>(stats.accepted)));
  extra.Set("infeasible", Json::Number(static_cast<double>(stats.infeasible)));
  extra.Set("decisions", Json::Number(static_cast<double>(stats.decisions)));
  extra.Set("latency_p50_ms", Json::Number(stats.latency_p50_ms));
  extra.Set("latency_p95_ms", Json::Number(stats.latency_p95_ms));
  extra.Set("latency_p99_ms", Json::Number(stats.latency_p99_ms));
  // Registry-sourced enrichment: live ingress backlog, wall uptime, and one
  // rejected_<reason> field per admission-reject reason seen so far.
  extra.Set("queue_depth", Json::Number(stats.queue_depth));
  extra.Set("uptime_seconds", Json::Number(stats.uptime_seconds));
  for (const auto& [reason, count] : stats.rejected_by_reason) {
    extra.Set("rejected_" + reason, Json::Number(static_cast<double>(count)));
  }
  return OkResponse(std::move(extra));
}

std::string HandleMetrics(const JsonObject& request) {
  const std::string format = request.StringOr("format", "json");
  if (format != "json" && format != "prometheus") {
    return ErrorResponse(RejectReason::kBadRequest, "metrics format must be json|prometheus");
  }
  const MetricsSnapshot snapshot = CounterRegistry::Global().Snapshot();
  JsonObject extra;
  extra.Set("format", Json::Str(format));
  // The protocol is flat (one line, no nesting), so the nested snapshot
  // rides inside a string field; consumers parse the line, then parse the
  // "metrics" payload (double-parse).
  extra.Set("metrics", Json::Str(format == "json" ? MetricsToJson(snapshot)
                                                  : MetricsToPrometheus(snapshot)));
  return OkResponse(std::move(extra));
}

}  // namespace

std::string HandleRequest(Controller& controller, const std::string& line) {
  JsonObject request;
  std::string error;
  if (!ParseJsonObject(line, &request, &error)) {
    return ErrorResponse(RejectReason::kBadRequest, error);
  }
  const std::string cmd = request.StringOr("cmd", "");
  // The id argument of cancel / fail-node / recover-node: required, and a
  // whole number in [min, max].
  int64_t id = 0;
  const auto read_id = [&](const char* key, int64_t min, int64_t max) {
    if (request.Find(key) == nullptr) {
      error = cmd + " needs " + key;
      return false;
    }
    return IntegerField(request, key, min, max, 0, &id, &error);
  };
  if (cmd == "submit") {
    return HandleSubmit(controller, request);
  }
  if (cmd == "cancel") {
    if (!read_id("job_id", -kMaxExactInteger, kMaxExactInteger)) {
      return ErrorResponse(RejectReason::kBadRequest, error);
    }
    return FromReject(controller.Cancel(id));
  }
  if (cmd == "fail-node" || cmd == "recover-node") {
    if (!read_id("node_id", INT_MIN, INT_MAX)) {
      return ErrorResponse(RejectReason::kBadRequest, error);
    }
    const int node_id = static_cast<int>(id);
    return FromReject(cmd == "fail-node" ? controller.FailNode(node_id)
                                         : controller.RecoverNode(node_id));
  }
  if (cmd == "query") {
    return HandleQuery(controller, request);
  }
  if (cmd == "stats") {
    return HandleStats(controller);
  }
  if (cmd == "metrics") {
    return HandleMetrics(request);
  }
  if (cmd == "shutdown") {
    const std::string mode = request.StringOr("mode", "drain");
    if (mode != "drain" && mode != "now") {
      return ErrorResponse(RejectReason::kBadRequest, "shutdown mode must be drain|now");
    }
    return FromReject(controller.Shutdown(mode == "drain"));
  }
  return ErrorResponse(RejectReason::kBadRequest, "unknown cmd '" + cmd + "'");
}

Server::Handler MakeHandler(Controller& controller) {
  return [&controller](const std::string& line) { return HandleRequest(controller, line); };
}

}  // namespace serve
}  // namespace crius
