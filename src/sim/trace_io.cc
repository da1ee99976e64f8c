#include "src/sim/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "src/model/models.h"
#include "src/util/check.h"
#include "src/util/csv.h"
#include "src/util/mathutil.h"

namespace crius {

namespace {

constexpr char kTraceHeader[] =
    "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
    "requested_type,deadline";
constexpr size_t kTraceFields = 9;

// Parses one data row's fields into *job; false with *error naming the field.
bool ParseTraceRow(const std::vector<std::string>& f, TrainingJob* job, std::string* error) {
  if (f.size() != kTraceFields) {
    *error = "expected " + std::to_string(kTraceFields) + " fields, got " +
             std::to_string(f.size());
    return false;
  }
  const std::optional<ModelFamily> family = ParseModelFamily(f[1]);
  if (!family.has_value()) {
    *error = "unknown family '" + f[1] + "'";
    return false;
  }
  job->spec.family = *family;
  int64_t requested_gpus = 0;
  if (!csv::ToInt(f[0], "id", &job->id, error) ||
      !csv::ToDouble(f[2], "params_billion", &job->spec.params_billion, error) ||
      !csv::ToInt(f[3], "global_batch", &job->spec.global_batch, error) ||
      !csv::ToInt(f[4], "iterations", &job->iterations, error) ||
      !csv::ToDouble(f[5], "submit_time", &job->submit_time, error) ||
      !csv::ToInt(f[6], "requested_gpus", &requested_gpus, error)) {
    return false;
  }
  // The rest of the program aborts on these: reject them here instead.
  const std::vector<double>& sizes = SupportedSizes(job->spec.family);
  if (std::none_of(sizes.begin(), sizes.end(), [&](double size) {
        return std::abs(size - job->spec.params_billion) < 1e-9;
      })) {
    *error = "unsupported params_billion " + f[2] + " for " + f[1];
    return false;
  }
  if (job->spec.global_batch < 1) {
    *error = "global_batch " + f[3] + " is not positive";
    return false;
  }
  // A job submitted at nan or inf never becomes visible.
  if (!std::isfinite(job->submit_time)) {
    *error = "submit_time " + f[5] + " is not finite";
    return false;
  }
  if (requested_gpus < 1 || requested_gpus > (1 << 30) ||
      !IsPowerOfTwo(requested_gpus)) {
    *error = "requested_gpus " + f[6] + " is not a power of two";
    return false;
  }
  job->requested_gpus = static_cast<int>(requested_gpus);
  const std::optional<GpuType> type = FindGpuType(f[7]);
  if (!type.has_value()) {
    *error = "unknown requested_type '" + f[7] + "'";
    return false;
  }
  job->requested_type = *type;
  if (!f[8].empty()) {
    double deadline = 0.0;
    if (!csv::ToDouble(f[8], "deadline", &deadline, error)) {
      return false;
    }
    job->deadline = deadline;
  }
  return true;
}

// `context` starts every error: "trace CSV", or "trace CSV <path>". On an
// error *out is left empty.
bool ReadTrace(std::istream& in, const std::string& context, const TraceJobCheck& check,
               std::vector<TrainingJob>* out, std::string* error) {
  out->clear();
  std::unordered_set<int64_t> ids;
  const bool ok = csv::ReadRows(
      in, context, kTraceHeader,
      [&](const std::vector<std::string>& fields, std::string* what) {
        TrainingJob job;
        if (!ParseTraceRow(fields, &job, what) || (check && !check(job, what))) {
          return false;
        }
        if (!ids.insert(job.id).second) {
          *what = "duplicate id " + std::to_string(job.id);
          return false;
        }
        out->push_back(std::move(job));
        return true;
      },
      error);
  if (!ok) {
    out->clear();
  }
  return ok;
}

}  // namespace

void WriteTraceCsv(const std::vector<TrainingJob>& trace, std::ostream& out) {
  // Round-trip-exact doubles: --trace-file must replay the run that saved it.
  const auto old_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << kTraceHeader << '\n';
  for (const TrainingJob& job : trace) {
    out << job.id << ',' << FamilyName(job.spec.family) << ',' << job.spec.params_billion
        << ',' << job.spec.global_batch << ',' << job.iterations << ',' << job.submit_time
        << ',' << job.requested_gpus << ',' << GpuName(job.requested_type) << ',';
    if (job.deadline.has_value()) {
      out << *job.deadline;
    }
    out << '\n';
  }
  out.precision(old_precision);
}

bool WriteTraceCsvFile(const std::vector<TrainingJob>& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteTraceCsv(trace, out);
  return out.good();
}

bool ReadTraceCsv(std::istream& in, std::vector<TrainingJob>* out, std::string* error,
                  const TraceJobCheck& check) {
  return ReadTrace(in, "trace CSV", check, out, error);
}

bool ReadTraceCsvFile(const std::string& path, std::vector<TrainingJob>* out,
                      std::string* error, const TraceJobCheck& check) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open trace file " + path;
    return false;
  }
  return ReadTrace(in, "trace CSV " + path, check, out, error);
}

std::vector<TrainingJob> ReadTraceCsv(std::istream& in) {
  std::vector<TrainingJob> trace;
  std::string error;
  CRIUS_CHECK_MSG(ReadTraceCsv(in, &trace, &error), error);
  return trace;
}

std::vector<TrainingJob> ReadTraceCsvFile(const std::string& path) {
  std::vector<TrainingJob> trace;
  std::string error;
  CRIUS_CHECK_MSG(ReadTraceCsvFile(path, &trace, &error), error);
  return trace;
}

void WriteJobRecordsCsv(const SimResult& result, std::ostream& out) {
  out << "id,submit,first_start,finish,jct,queue_time,restarts,sched_restarts,"
         "failure_restarts,finished,dropped,had_deadline,deadline_met\n";
  for (const JobRecord& r : result.jobs) {
    out << r.id << ',' << r.submit << ',' << r.first_start << ',' << r.finish << ','
        << (r.finished ? r.jct() : -1.0) << ','
        << (r.finished ? std::max(0.0, r.queue_time()) : -1.0) << ',' << r.restarts << ','
        << r.sched_restarts << ',' << r.failure_restarts << ',' << r.finished << ','
        << r.dropped << ',' << r.had_deadline << ',' << r.deadline_met << '\n';
  }
}

bool WriteJobRecordsCsvFile(const SimResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteJobRecordsCsv(result, out);
  return out.good();
}

void WriteTimelineCsv(const SimResult& result, std::ostream& out) {
  out << "time,normalized_throughput,running_jobs,queued_jobs,busy_gpus\n";
  for (const ThroughputSample& s : result.timeline) {
    out << s.time << ',' << s.normalized_throughput << ',' << s.running_jobs << ','
        << s.queued_jobs << ',' << s.busy_gpus << '\n';
  }
}

bool WriteTimelineCsvFile(const SimResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteTimelineCsv(result, out);
  return out.good();
}

void WriteEventsCsv(const SimResult& result, std::ostream& out) {
  out << "time,kind,job_id,placement\n";
  for (const SimEvent& e : result.events) {
    out << e.time << ',' << SimEvent::KindName(e.kind) << ',' << e.job_id << ','
        << csv::EscapeField(e.placement) << '\n';
  }
}

bool WriteEventsCsvFile(const SimResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteEventsCsv(result, out);
  return out.good();
}

}  // namespace crius
