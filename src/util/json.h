// Minimal generic JSON tree: parse, build, serialize.
//
// The one JSON reader and writer in src/: the serve protocol's request and
// response lines (src/serve/protocol.h), metrics snapshots
// (src/util/metrics_export.h), bench perf reports (bench/bench_util.h), and
// the crius_benchdiff regression gate all read and write this tree.
//
// Properties the consumers rely on:
//   * Deterministic serialization: objects keep insertion order (builders
//     insert sorted keys where determinism matters), numbers render via
//     FormatJsonNumber, so parse(serialize(x)) == x and golden tests can
//     string-compare output.
//   * No aborts on malformed input: Parse returns false with a message and
//     byte offset; operator-supplied files are rejected, never crashed on.
//     Numbers follow the RFC 8259 grammar and must be finite doubles.
//   * Small surface: object/array/string/number/bool/null only -- no
//     comments, no trailing commas, \uXXXX escapes limited to ASCII.

#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crius {

class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  // --- Builders --------------------------------------------------------------
  static Json Null();
  static Json Bool(bool v);
  static Json Number(double v);
  static Json Str(std::string v);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // --- Object access (no-op / empty defaults on kind mismatch) ---------------
  // Adds or replaces `key`; keeps first-insertion position on replace.
  Json& Set(const std::string& key, Json value);
  const Json* Find(const std::string& key) const;
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  const std::vector<std::pair<std::string, Json>>& fields() const { return fields_; }

  // --- Array access ----------------------------------------------------------
  void Push(Json value);
  const std::vector<Json>& items() const { return items_; }

  // --- Leaf values -----------------------------------------------------------
  double number() const { return num_; }
  bool boolean() const { return b_; }
  const std::string& str() const { return str_; }

  // Compact single-line serialization ("indent < 0"), or pretty-printed with
  // `indent` spaces per level. Deterministic given the tree.
  std::string Serialize(int indent = -1) const;

  // Parses one complete JSON value (trailing garbage is an error). Returns
  // false with a message + offset in *error on malformed input.
  static bool Parse(const std::string& text, Json* out, std::string* error);

  // JSON string escaping of `s` (quotes included), shared with exporters.
  static std::string EscapeString(const std::string& s);

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool b_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

// Decimal rendering of `v` that parses back to the same double: whole numbers
// below 1e15 as plain digits, everything else in shortest round-trip form
// (std::to_chars); "0" for -0 and for non-finite values.
std::string FormatJsonNumber(double v);

}  // namespace crius

#endif  // SRC_UTIL_JSON_H_
