#include "src/fault/fault_trace_io.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <vector>

#include "src/util/check.h"
#include "src/util/csv.h"

namespace crius {

namespace {

constexpr char kFailureHeader[] = "time,kind,node_id,gpus,slowdown";
constexpr size_t kFailureFields = 5;

std::optional<FailureKind> ParseKind(const std::string& s) {
  for (FailureKind k :
       {FailureKind::kNodeFail, FailureKind::kNodeRecover, FailureKind::kGpuFail,
        FailureKind::kGpuRecover, FailureKind::kStragglerStart, FailureKind::kStragglerEnd}) {
    if (s == FailureEvent::KindName(k)) {
      return k;
    }
  }
  return std::nullopt;
}

// Parses an int column into *out; false with *error naming the field.
bool ToIntField(const std::string& s, const char* what, int* out, std::string* error) {
  int64_t v = 0;
  if (!csv::ToInt(s, what, &v, error)) {
    return false;
  }
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    *error = std::string("out-of-range ") + what + " '" + s + "'";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// Parses one data row's fields into *e; false with *error naming the field.
bool ParseFailureRow(const std::vector<std::string>& f, FailureEvent* e, std::string* error) {
  if (f.size() != kFailureFields) {
    *error = "expected " + std::to_string(kFailureFields) + " fields, got " +
             std::to_string(f.size());
    return false;
  }
  const std::optional<FailureKind> kind = ParseKind(f[1]);
  if (!kind.has_value()) {
    *error = "unknown kind '" + f[1] + "'";
    return false;
  }
  e->kind = *kind;
  if (!csv::ToDouble(f[0], "time", &e->time, error) ||
      !ToIntField(f[2], "node_id", &e->node_id, error) ||
      !ToIntField(f[3], "gpus", &e->gpus, error) ||
      !csv::ToDouble(f[4], "slowdown", &e->slowdown, error)) {
    return false;
  }
  if (!(e->time >= 0.0) || !std::isfinite(e->time)) {
    *error = "time " + f[0] + " is negative or not finite";
    return false;
  }
  if (e->node_id < 0) {
    *error = "negative node_id " + f[2];
    return false;
  }
  if (e->kind == FailureKind::kStragglerStart && !(e->slowdown >= 1.0)) {
    *error = "straggler slowdown " + f[4] + " is below 1";
    return false;
  }
  return true;
}

// `context` starts every error: "failure trace", or "failure trace <path>".
// On an error *out is left empty.
bool ReadFailures(std::istream& in, const std::string& context, std::vector<FailureEvent>* out,
                  std::string* error) {
  out->clear();
  const bool ok = csv::ReadRows(
      in, context, kFailureHeader,
      [&](const std::vector<std::string>& fields, std::string* what) {
        FailureEvent e;
        if (!ParseFailureRow(fields, &e, what)) {
          return false;
        }
        out->push_back(e);
        return true;
      },
      error);
  if (!ok) {
    out->clear();
    return false;
  }
  SortFailureSchedule(*out);
  return true;
}

}  // namespace

void WriteFailureTraceCsv(const std::vector<FailureEvent>& events, std::ostream& out) {
  // Shortest-round-trip precision: a saved schedule replays the exact same
  // simulation the generating run saw.
  const auto old_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << kFailureHeader << '\n';
  for (const FailureEvent& e : events) {
    out << e.time << ',' << FailureEvent::KindName(e.kind) << ',' << e.node_id << ','
        << e.gpus << ',' << e.slowdown << '\n';
  }
  out.precision(old_precision);
}

bool WriteFailureTraceCsvFile(const std::vector<FailureEvent>& events,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteFailureTraceCsv(events, out);
  return out.good();
}

bool ReadFailureTraceCsv(std::istream& in, std::vector<FailureEvent>* out, std::string* error) {
  return ReadFailures(in, "failure trace", out, error);
}

bool ReadFailureTraceCsvFile(const std::string& path, std::vector<FailureEvent>* out,
                             std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open failure trace " + path;
    return false;
  }
  return ReadFailures(in, "failure trace " + path, out, error);
}

std::vector<FailureEvent> ReadFailureTraceCsv(std::istream& in) {
  std::vector<FailureEvent> events;
  std::string error;
  CRIUS_CHECK_MSG(ReadFailureTraceCsv(in, &events, &error), error);
  return events;
}

std::vector<FailureEvent> ReadFailureTraceCsvFile(const std::string& path) {
  std::vector<FailureEvent> events;
  std::string error;
  CRIUS_CHECK_MSG(ReadFailureTraceCsvFile(path, &events, &error), error);
  return events;
}

}  // namespace crius
