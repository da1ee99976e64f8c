#include "src/serve/protocol.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <optional>
#include <vector>

namespace crius {
namespace serve {

bool ParseJsonObject(const std::string& line, JsonObject* out, std::string* error) {
  if (!Json::Parse(line, out, error)) {
    return false;
  }
  if (!out->is_object()) {
    *error = "a protocol line must be a JSON object";
    return false;
  }
  for (const auto& [key, value] : out->fields()) {
    if (!value.is_string() && !value.is_number() && !value.is_bool()) {
      *error = "field '" + key + "': nested values, arrays and null are not part of the protocol";
      return false;
    }
  }
  return true;
}

std::string Serialize(const JsonObject& obj) {
  std::vector<const std::pair<std::string, Json>*> fields;
  fields.reserve(obj.fields().size());
  for (const auto& field : obj.fields()) {
    fields.push_back(&field);
  }
  std::sort(fields.begin(), fields.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::string out = "{";
  for (const auto* field : fields) {
    if (out.size() > 1) {
      out += ',';
    }
    out += Json::EscapeString(field->first);
    out += ':';
    out += field->second.Serialize();
  }
  out += '}';
  return out;
}

bool IntegerField(const JsonObject& request, const std::string& key, int64_t min, int64_t max,
                  int64_t fallback, int64_t* out, std::string* error) {
  double value = static_cast<double>(fallback);
  if (const Json* field = request.Find(key); field != nullptr) {
    if (!field->is_number() || field->number() != std::trunc(field->number())) {
      *error = key + " must be an integer";
      return false;
    }
    value = field->number();
  }
  // Range-check the double before converting: an out-of-range cast is UB.
  if (value < static_cast<double>(min)) {
    *error = key + " must be >= " + std::to_string(min);
    return false;
  }
  if (value > static_cast<double>(max)) {
    *error = key + " must be <= " + std::to_string(max);
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

namespace {

std::string RejectLine(RejectReason reason, const std::string& message) {
  JsonObject obj;
  obj.Set("ok", Json::Bool(false));
  obj.Set("reason", Json::Str(RejectReasonName(reason)));
  if (!message.empty()) {
    obj.Set("message", Json::Str(message));
  }
  return Serialize(obj);
}

}  // namespace

std::string OkResponse(JsonObject extra) {
  extra.Set("ok", Json::Bool(true));
  return Serialize(extra);
}

std::string ErrorResponse(RejectReason reason, const std::string& message) {
  if (message.empty()) {
    // Admission rejects ARE the serve hot path under overload (every
    // over-capacity submission produces one); the message-less response per
    // reason is a constant line, so serialize each exactly once.
    static const std::array<std::string, kNumRejectReasons> kCached = [] {
      std::array<std::string, kNumRejectReasons> cached;
      for (size_t i = 0; i < cached.size(); ++i) {
        cached[i] = RejectLine(static_cast<RejectReason>(i), "");
      }
      return cached;
    }();
    return kCached[static_cast<size_t>(reason)];
  }
  return RejectLine(reason, message);
}

bool ParseSubmitJob(const JsonObject& request, TrainingJob* job, std::string* error) {
  *job = TrainingJob{};

  const std::string family = request.StringOr("family", "");
  const std::optional<ModelFamily> parsed = ParseModelFamily(family);
  if (!parsed.has_value()) {
    *error = "unknown family '" + family + "'";
    return false;
  }
  job->spec.family = *parsed;

  job->spec.params_billion = request.NumberOr("params_billion", -1.0);
  bool size_ok = false;
  for (double size : SupportedSizes(job->spec.family)) {
    if (std::abs(size - job->spec.params_billion) < 1e-9) {
      job->spec.params_billion = size;
      size_ok = true;
      break;
    }
  }
  if (!size_ok) {
    *error = "unsupported params_billion for " + family;
    return false;
  }

  int64_t gpus = 0;
  if (!IntegerField(request, "global_batch", 1, kMaxExactInteger, 0, &job->spec.global_batch,
                    error) ||
      !IntegerField(request, "iterations", 1, kMaxExactInteger, 0, &job->iterations, error) ||
      !IntegerField(request, "gpus", 1, INT_MAX, 0, &gpus, error)) {
    return false;
  }
  job->requested_gpus = static_cast<int>(gpus);

  const std::string type = request.StringOr("type", "A100");
  bool type_ok = false;
  for (GpuType t : AllGpuTypes()) {
    if (type == GpuName(t)) {
      job->requested_type = t;
      type_ok = true;
      break;
    }
  }
  if (!type_ok) {
    *error = "unknown GPU type '" + type + "'";
    return false;
  }

  if (request.Find("deadline") != nullptr) {
    const double deadline = request.NumberOr("deadline", -1.0);
    if (deadline <= 0.0) {
      *error = "deadline must be > 0";
      return false;
    }
    job->deadline = deadline;
  }
  return true;
}

JsonObject SubmitRequest(const TrainingJob& job) {
  JsonObject obj;
  obj.Set("cmd", Json::Str("submit"));
  obj.Set("family", Json::Str(FamilyName(job.spec.family)));
  obj.Set("params_billion", Json::Number(job.spec.params_billion));
  obj.Set("global_batch", Json::Number(static_cast<double>(job.spec.global_batch)));
  obj.Set("iterations", Json::Number(static_cast<double>(job.iterations)));
  obj.Set("gpus", Json::Number(job.requested_gpus));
  obj.Set("type", Json::Str(GpuName(job.requested_type)));
  if (job.deadline.has_value()) {
    obj.Set("deadline", Json::Number(*job.deadline));
  }
  return obj;
}

}  // namespace serve
}  // namespace crius
