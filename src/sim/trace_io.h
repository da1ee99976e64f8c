// Trace and result persistence (CSV).
//
// The paper's system consumes production traces (Philly / Helios / PAI) from
// files; this module gives the reproduction the same workflow: synthetic
// traces can be saved, edited, and replayed, and simulation results can be
// exported for external plotting.
//
// Trace CSV columns:
//   id,family,params_billion,global_batch,iterations,submit_time,
//   requested_gpus,requested_type,deadline
// (deadline empty when absent). This header row is required.

#ifndef SRC_SIM_TRACE_IO_H_
#define SRC_SIM_TRACE_IO_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/model/job.h"
#include "src/sim/metrics.h"

namespace crius {

// Serializes `trace` as CSV (with header).
void WriteTraceCsv(const std::vector<TrainingJob>& trace, std::ostream& out);
bool WriteTraceCsvFile(const std::vector<TrainingJob>& trace, const std::string& path);

// A caller's own test of each parsed job: false rejects the job's row, with
// *error saying why (e.g. a job no GPU type of the cluster can run).
using TraceJobCheck = std::function<bool(const TrainingJob&, std::string*)>;

// Parses a trace CSV into *out. The header must be exactly the one
// WriteTraceCsv writes. On malformed input, or a job `check` (if given)
// rejects, returns false, empties *out and sets *error to a message naming
// the line and the field, e.g. "trace CSV line 7: bad deadline 'abc'"; the
// file form names the file too ("trace CSV jobs.csv line 7: ...") and
// reports a file it cannot open.
bool ReadTraceCsv(std::istream& in, std::vector<TrainingJob>* out, std::string* error,
                  const TraceJobCheck& check = nullptr);
bool ReadTraceCsvFile(const std::string& path, std::vector<TrainingJob>* out,
                      std::string* error, const TraceJobCheck& check = nullptr);

// The same, aborting with that message (tests and in-process round trips).
std::vector<TrainingJob> ReadTraceCsv(std::istream& in);
std::vector<TrainingJob> ReadTraceCsvFile(const std::string& path);

// Per-job result rows (restarts == sched_restarts + failure_restarts):
//   id,submit,first_start,finish,jct,queue_time,restarts,sched_restarts,
//   failure_restarts,finished,dropped,had_deadline,deadline_met
void WriteJobRecordsCsv(const SimResult& result, std::ostream& out);
bool WriteJobRecordsCsvFile(const SimResult& result, const std::string& path);

// Throughput timeline rows:
//   time,normalized_throughput,running_jobs,queued_jobs,busy_gpus
void WriteTimelineCsv(const SimResult& result, std::ostream& out);
bool WriteTimelineCsvFile(const SimResult& result, const std::string& path);

// Scheduling-event rows (requires SimConfig::record_events):
//   time,kind,job_id,placement
void WriteEventsCsv(const SimResult& result, std::ostream& out);
bool WriteEventsCsvFile(const SimResult& result, const std::string& path);

}  // namespace crius

#endif  // SRC_SIM_TRACE_IO_H_
