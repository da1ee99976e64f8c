// Failure-trace persistence (CSV), in the style of src/sim/trace_io.
//
// Injector-generated schedules can be saved, hand-edited, and replayed:
// scripted scenarios ("node 3 dies at minute 10, comes back at minute 40")
// are just small CSV files. Loaded schedules are re-sorted into canonical
// order, so hand-written files need not be sorted.
//
// Failure-trace CSV columns:
//   time,kind,node_id,gpus,slowdown
// kind in {node_fail,node_recover,gpu_fail,gpu_recover,straggler_start,
// straggler_end}. Header row required.

#ifndef SRC_FAULT_FAULT_TRACE_IO_H_
#define SRC_FAULT_FAULT_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/fault/failure_injector.h"

namespace crius {

// Serializes `events` as CSV (with header).
void WriteFailureTraceCsv(const std::vector<FailureEvent>& events, std::ostream& out);
bool WriteFailureTraceCsvFile(const std::vector<FailureEvent>& events,
                              const std::string& path);

// Parses a failure-trace CSV into *out, in canonical order. The header must
// be exactly the one WriteFailureTraceCsv writes. On malformed input returns
// false, empties *out and sets *error to a message naming the line and the
// field, e.g. "failure trace line 3: unknown kind 'explode'"; the file form
// names the file too ("failure trace faults.csv line 3: ...") and reports a
// file it cannot open. Rejected besides malformed fields: a negative or
// non-finite time, a negative node id and a straggler slowdown below 1.
bool ReadFailureTraceCsv(std::istream& in, std::vector<FailureEvent>* out, std::string* error);
bool ReadFailureTraceCsvFile(const std::string& path, std::vector<FailureEvent>* out,
                             std::string* error);

// The same, aborting with that message (tests and in-process round trips).
std::vector<FailureEvent> ReadFailureTraceCsv(std::istream& in);
std::vector<FailureEvent> ReadFailureTraceCsvFile(const std::string& path);

}  // namespace crius

#endif  // SRC_FAULT_FAULT_TRACE_IO_H_
