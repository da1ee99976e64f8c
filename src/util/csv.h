// Shared CSV plumbing: one splitter/escaper and one set of field parsers for
// every CSV format the repository reads or writes (workload traces, failure
// traces, per-job result exports, and the serve session log).
//
// trace_io and fault_trace_io used to hand-roll identical SplitCsv /
// ParseDouble helpers; this header is the single copy. The splitter and
// escaper speak RFC-4180-style quoting (fields containing commas, quotes, or
// newlines are double-quoted with embedded quotes doubled), which the session
// log needs for its free-form meta field; the numeric-only schemas emit the
// same bytes as before because unremarkable fields are never quoted.
//
// The Parse* helpers and Reader abort with a "<context> line N: ..."
// diagnostic via CRIUS_CHECK; the To* helpers return the same message as a
// status, for readers that report bad input instead (the trace and failure
// CSVs, through ReadRows).

#ifndef SRC_UTIL_CSV_H_
#define SRC_UTIL_CSV_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace crius {
namespace csv {

// Splits one CSV line into fields. Double-quoted fields may contain commas
// and doubled quotes; '\r' is stripped outside quotes (Windows line ends).
std::vector<std::string> SplitLine(const std::string& line);

// Returns `field` ready for emission: verbatim unless it contains a comma,
// quote, or newline, in which case it is double-quoted with internal quotes
// doubled.
std::string EscapeField(const std::string& field);

// Writes one comma-joined row (each field escaped) plus a trailing newline.
void WriteRow(std::ostream& out, const std::vector<std::string>& fields);

// Strict numeric parsers. `what` names the column and `context` the file
// format; both appear in the abort diagnostic, e.g.
//   "trace CSV line 7: bad params_billion 'abc'".
double ParseDouble(const std::string& s, const char* what, int line_no, const char* context);
int64_t ParseInt(const std::string& s, const char* what, int line_no, const char* context);

// The non-aborting checks behind them: `s` must be one whole number (for
// ToInt, an integral one). On failure *out is untouched and `error` says why,
// e.g. "bad deadline 'abc'", "empty iterations" or "non-integer id".
bool ToDouble(const std::string& s, const char* what, double* out, std::string* error);
bool ToInt(const std::string& s, const char* what, int64_t* out, std::string* error);

// Reads a CSV whose first non-blank line must be exactly `header`, calling
// row(fields, &what) on each later non-blank line ('\r' line ends accepted).
// Stops at the first row for which it returns false. Returns false with
// *error set to "<context> line N: <what>" for that row or a bad header, or
// "<context>: missing header row" for an input without one. The status-form
// readers (trace and failure CSVs) use this.
bool ReadRows(std::istream& in, const std::string& context, const std::string& header,
              const std::function<bool(const std::vector<std::string>&, std::string*)>& row,
              std::string* error);

// Line-oriented CSV reader: skips blank lines, tracks line numbers, and
// validates the header row (the first non-blank line must start with
// `header_prefix`; aborts with "<context> missing header row" otherwise).
class Reader {
 public:
  Reader(std::istream& in, std::string context, std::string header_prefix);

  // Advances to the next data row; false at end of input.
  bool Next();

  // Current row accessors (valid after Next() returned true).
  const std::vector<std::string>& fields() const { return fields_; }
  int line_no() const { return line_no_; }
  // True when the current row is the last line of the input and lacks its
  // trailing newline: a writer that was killed mid-append leaves one.
  bool torn() const { return torn_; }

  // Aborts unless the current row has exactly `n` fields.
  void ExpectFields(size_t n) const;

  const std::string& Field(size_t i) const;
  double Double(size_t i, const char* what) const;
  int64_t Int(size_t i, const char* what) const;

 private:
  std::istream& in_;
  std::string context_;
  std::string header_prefix_;
  std::vector<std::string> fields_;
  int line_no_ = 0;
  bool header_seen_ = false;
  bool torn_ = false;
};

}  // namespace csv
}  // namespace crius

#endif  // SRC_UTIL_CSV_H_
