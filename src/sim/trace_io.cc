#include "src/sim/trace_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/util/check.h"
#include "src/util/csv.h"

namespace crius {

void WriteTraceCsv(const std::vector<TrainingJob>& trace, std::ostream& out) {
  // Round-trip-exact doubles: --trace-file must replay the run that saved it.
  const auto old_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
         "requested_type,deadline\n";
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

std::vector<TrainingJob> ReadTraceCsv(std::istream& in) {
  std::vector<TrainingJob> trace;
  csv::Reader reader(in, "trace CSV", "id,");
  while (reader.Next()) {
    reader.ExpectFields(9);
    TrainingJob job;
    job.id = reader.Int(0, "id");
    const std::optional<ModelFamily> family = ParseModelFamily(reader.Field(1));
    CRIUS_CHECK_MSG(family.has_value(), "trace CSV line " << reader.line_no()
                                                          << ": unknown family '"
                                                          << reader.Field(1) << "'");
    job.spec.family = *family;
    job.spec.params_billion = reader.Double(2, "params_billion");
    job.spec.global_batch = reader.Int(3, "global_batch");
    job.iterations = reader.Int(4, "iterations");
    job.submit_time = reader.Double(5, "submit_time");
    job.requested_gpus = static_cast<int>(reader.Int(6, "requested_gpus"));
    job.requested_type = ParseGpuType(reader.Field(7));
    if (!reader.Field(8).empty()) {
      job.deadline = reader.Double(8, "deadline");
    }
    trace.push_back(job);
  }
  return trace;
}

std::vector<TrainingJob> ReadTraceCsvFile(const std::string& path) {
  std::ifstream in(path);
  CRIUS_CHECK_MSG(in.is_open(), "cannot open trace file " << path);
  return ReadTraceCsv(in);
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
