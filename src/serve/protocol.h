// Line-delimited JSON protocol between crius_serve and its clients.
//
// Each request and each response is one flat JSON object on one line --
// string, number, and boolean values only, no nesting. The flat shape keeps
// the daemon trivially scriptable from a shell and is all the command
// vocabulary needs. Lines are read and written with crius::Json
// (src/util/json.h); this file adds the flat-shape check, the sorted-key
// wire serializer, and the typed request fields.
//
//   -> {"cmd":"submit","family":"BERT","params_billion":1.3,
//       "global_batch":256,"iterations":200,"gpus":8,"type":"A100"}
//   <- {"job_id":7,"ok":true,"status":"queued"}
//   -> {"cmd":"submit",...}                       (cluster saturated)
//   <- {"ok":false,"reason":"cluster_saturated"}
//
// Commands: submit | cancel | fail-node | recover-node | query | stats |
// metrics | shutdown; see DESIGN.md §10 "Protocol". The `metrics` reply
// carries the (nested) registry snapshot as an escaped string field --
// clients parse the line, then parse the "metrics" payload.
//
// Serialization is deterministic (keys emitted in sorted order) so tests can
// string-compare responses.

#ifndef SRC_SERVE_PROTOCOL_H_
#define SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/model/job.h"
#include "src/serve/event_queue.h"
#include "src/util/json.h"

namespace crius {
namespace serve {

// A protocol line: a Json object with string, number, and bool values.
using JsonObject = Json;

// Parses one protocol line. Returns false (with a message in *error) on
// malformed JSON, a root that is not an object, nesting, arrays, or null --
// operator input is rejected, never aborted on.
bool ParseJsonObject(const std::string& line, JsonObject* out, std::string* error);

// Renders `obj` as one JSON line (no trailing newline), keys sorted. The one
// place that fixes the wire key order.
std::string Serialize(const JsonObject& obj);

// Largest magnitude at which every integer is exactly a double (2^53).
inline constexpr int64_t kMaxExactInteger = int64_t{1} << 53;

// Reads the integer field `key` of `request` into *out: `fallback` when the
// field is absent, else a whole number in [min, max]. Returns false with a
// message otherwise (not a number, fractional, or out of range). Bounds must
// lie within +-kMaxExactInteger so every accepted value converts exactly.
bool IntegerField(const JsonObject& request, const std::string& key, int64_t min, int64_t max,
                  int64_t fallback, int64_t* out, std::string* error);

// Canned responses.
std::string OkResponse(JsonObject extra = {});
std::string ErrorResponse(RejectReason reason, const std::string& message = "");

// Builds a TrainingJob (id unset) from a submit request. Returns false with a
// human-readable message on unknown families/types, unsupported model sizes,
// or non-positive or non-integer counts; the caller turns that into a
// kBadRequest response.
bool ParseSubmitJob(const JsonObject& request, TrainingJob* job, std::string* error);

// The submit request for `job` (inverse of ParseSubmitJob; used by the client
// library and the load generator).
JsonObject SubmitRequest(const TrainingJob& job);

}  // namespace serve
}  // namespace crius

#endif  // SRC_SERVE_PROTOCOL_H_
