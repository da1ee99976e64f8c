#include "src/util/csv.h"

#include <cmath>
#include <exception>
#include <istream>
#include <ostream>
#include <string>

#include "src/util/check.h"

namespace crius {
namespace csv {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';  // doubled quote inside a quoted field
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

std::string EscapeField(const std::string& field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void WriteRow(std::ostream& out, const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << EscapeField(fields[i]);
  }
  out << '\n';
}

bool ToDouble(const std::string& s, const char* what, double* out, std::string* error) {
  if (s.empty()) {
    *error = std::string("empty ") + what;
    return false;
  }
  size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size()) {
    *error = std::string("bad ") + what + " '" + s + "'";
    return false;
  }
  *out = v;
  return true;
}

bool ToInt(const std::string& s, const char* what, int64_t* out, std::string* error) {
  double v = 0.0;
  if (!ToDouble(s, what, &v, error)) {
    return false;
  }
  if (v != std::floor(v)) {
    *error = std::string("non-integer ") + what;
    return false;
  }
  // Converting a double outside int64_t is undefined; |v| < 2^63 is safe.
  if (!(std::fabs(v) < 9223372036854775808.0)) {
    *error = std::string("out-of-range ") + what + " '" + s + "'";
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

double ParseDouble(const std::string& s, const char* what, int line_no, const char* context) {
  double v = 0.0;
  std::string error;
  CRIUS_CHECK_MSG(ToDouble(s, what, &v, &error), context << " line " << line_no << ": " << error);
  return v;
}

int64_t ParseInt(const std::string& s, const char* what, int line_no, const char* context) {
  int64_t v = 0;
  std::string error;
  CRIUS_CHECK_MSG(ToInt(s, what, &v, &error), context << " line " << line_no << ": " << error);
  return v;
}

bool ReadRows(std::istream& in, const std::string& context, const std::string& header,
              const std::function<bool(const std::vector<std::string>&, std::string*)>& row,
              std::string* error) {
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    std::string what;
    if (!header_seen) {
      header_seen = true;
      if (line == header) {
        continue;
      }
      what = "bad header '" + line + "' (want '" + header + "')";
    } else if (row(SplitLine(line), &what)) {
      continue;
    }
    *error = context + " line " + std::to_string(line_no) + ": " + what;
    return false;
  }
  if (!header_seen) {
    *error = context + ": missing header row";
    return false;
  }
  return true;
}

Reader::Reader(std::istream& in, std::string context, std::string header_prefix)
    : in_(in), context_(std::move(context)), header_prefix_(std::move(header_prefix)) {}

bool Reader::Next() {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_no_;
    if (line.empty() || line == "\r") {
      continue;
    }
    if (!header_seen_) {
      header_seen_ = true;
      CRIUS_CHECK_MSG(line.rfind(header_prefix_, 0) == 0, context_ << " missing header row");
      continue;
    }
    fields_ = SplitLine(line);
    torn_ = in_.eof();  // getline hit the end of input before a '\n'
    return true;
  }
  return false;
}

void Reader::ExpectFields(size_t n) const {
  CRIUS_CHECK_MSG(fields_.size() == n, context_ << " line " << line_no_ << ": expected " << n
                                                << " fields, got " << fields_.size());
}

const std::string& Reader::Field(size_t i) const {
  CRIUS_CHECK(i < fields_.size());
  return fields_[i];
}

double Reader::Double(size_t i, const char* what) const {
  return ParseDouble(Field(i), what, line_no_, context_.c_str());
}

int64_t Reader::Int(size_t i, const char* what) const {
  return ParseInt(Field(i), what, line_no_, context_.c_str());
}

}  // namespace csv
}  // namespace crius
