#include "src/util/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <system_error>

namespace crius {

Json Json::Null() { return Json(); }

Json Json::Bool(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.b_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::Str(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json& Json::Set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return fields_.back().second;
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double Json::NumberOr(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_number() ? v->num_ : fallback;
}

std::string Json::StringOr(const std::string& key, const std::string& fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_string() ? v->str_ : fallback;
}

bool Json::BoolOr(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_bool() ? v->b_ : fallback;
}

void Json::Push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
}

std::string FormatJsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no Inf/NaN; exporters clamp rather than emit invalid text
  }
  if (v == 0.0) {
    return "0";
  }
  char buf[64];
  // Whole numbers below 1e15 (ids, counts) print as plain digits: the
  // shortest form of 100000 would be "1e+05".
  const auto res = v == std::trunc(v) && std::abs(v) < 1e15
                       ? std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v))
                       : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Json::EscapeString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::SerializeTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ') : "";
  const std::string close_pad = pretty ? std::string(static_cast<size_t>(indent * depth), ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += b_ ? "true" : "false";
      break;
    case Kind::kNumber:
      *out += FormatJsonNumber(num_);
      break;
    case Kind::kString:
      *out += EscapeString(str_);
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[";
      *out += nl;
      for (size_t i = 0; i < items_.size(); ++i) {
        *out += pad;
        items_[i].SerializeTo(out, indent, depth + 1);
        if (i + 1 < items_.size()) {
          *out += ",";
        }
        *out += nl;
      }
      *out += close_pad;
      *out += "]";
      break;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{";
      *out += nl;
      for (size_t i = 0; i < fields_.size(); ++i) {
        *out += pad;
        *out += EscapeString(fields_[i].first);
        *out += colon;
        fields_[i].second.SerializeTo(out, indent, depth + 1);
        if (i + 1 < fields_.size()) {
          *out += ",";
        }
        *out += nl;
      }
      *out += close_pad;
      *out += "}";
      break;
    }
  }
}

std::string Json::Serialize(int indent) const {
  std::string out;
  SerializeTo(&out, indent, 0);
  return out;
}

namespace {

// Length of the well-formed UTF-8 sequence starting at s[i] (a byte >= 0x80),
// or 0 for a stray continuation byte, an overlong form, a surrogate, a code
// point above U+10FFFF, or a sequence cut short (RFC 3629 section 4).
size_t Utf8SequenceLength(const std::string& s, size_t i) {
  const auto at = [&s](size_t k) { return k < s.size() ? static_cast<uint8_t>(s[k]) : 0u; };
  const unsigned lead = at(i);
  const size_t len = lead >= 0xf0 ? 4 : lead >= 0xe0 ? 3 : 2;
  // The second byte's range is what excludes overlongs (E0, F0), surrogates
  // (ED) and code points above U+10FFFF (F4).
  const unsigned lo = lead == 0xe0 ? 0xa0 : lead == 0xf0 ? 0x90 : 0x80;
  const unsigned hi = lead == 0xed ? 0x9f : lead == 0xf4 ? 0x8f : 0xbf;
  if (lead < 0xc2 || lead > 0xf4 || at(i + 1) < lo || at(i + 1) > hi) {
    return 0;
  }
  for (size_t k = 2; k < len; ++k) {
    if (at(i + k) < 0x80 || at(i + k) > 0xbf) {
      return 0;
    }
  }
  return len;
}

// A byte for an error message: printable ASCII as is, anything else as \xNN,
// so a message never carries bytes that are not valid UTF-8.
std::string Printable(char c) {
  const auto byte = static_cast<unsigned char>(c);
  if (byte >= 0x20 && byte <= 0x7e) {
    return std::string(1, c);
  }
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\x%02x", byte);
  return buf;
}

struct JsonParser {
  const std::string& s;
  size_t pos = 0;
  std::string* error;

  bool Fail(const std::string& message) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  // RFC 8259 whitespace only: no \v or \f.
  void SkipSpace() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r')) {
      ++pos;
    }
  }

  bool ParseString(std::string* out) {
    if (pos >= s.size() || s[pos] != '"') {
      return Fail("expected string");
    }
    ++pos;
    out->clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') {
        return true;
      }
      const auto byte = static_cast<unsigned char>(c);
      if (byte < 0x20) {
        --pos;
        return Fail("control character in string");
      }
      if (byte >= 0x80) {
        const size_t len = Utf8SequenceLength(s, pos - 1);
        if (len == 0) {
          --pos;
          return Fail("invalid UTF-8 in string");
        }
        out->append(s, pos - 1, len);
        pos += len - 1;
        continue;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= s.size()) {
        return Fail("dangling escape");
      }
      const char e = s[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos + 4 > s.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          if (code > 0x7f) {
            return Fail("\\u escapes beyond ASCII are not supported");
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("unsupported escape '\\" + Printable(e) + "'");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > 64) {
      return Fail("nesting too deep");
    }
    SkipSpace();
    if (pos >= s.size()) {
      return Fail("expected value");
    }
    const char c = s[pos];
    if (c == '"') {
      std::string str;
      if (!ParseString(&str)) {
        return false;
      }
      *out = Json::Str(std::move(str));
      return true;
    }
    if (c == '{') {
      ++pos;
      *out = Json::Object();
      SkipSpace();
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipSpace();
        if (pos >= s.size() || s[pos] != ':') {
          return Fail("expected ':'");
        }
        ++pos;
        Json value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Set(key, std::move(value));
        SkipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      *out = Json::Array();
      SkipSpace();
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Json value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Push(std::move(value));
        SkipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string word = c == 't' ? "true" : (c == 'f' ? "false" : "null");
      if (s.compare(pos, word.size(), word) != 0) {
        return Fail("bad literal");
      }
      pos += word.size();
      *out = c == 'n' ? Json::Null() : Json::Bool(c == 't');
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber(out);
    }
    return Fail("unexpected character '" + Printable(c) + "'");
  }

  bool IsDigit(size_t i) const { return i < s.size() && s[i] >= '0' && s[i] <= '9'; }

  size_t SkipDigits(size_t i) const {
    while (IsDigit(i)) {
      ++i;
    }
    return i;
  }

  // RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?.
  // No inf/nan spellings, no hex; a value outside the double range (1e999,
  // 1e-400) is rejected rather than rounded to inf or 0.
  bool ParseNumber(Json* out) {
    size_t end = pos;
    if (s[end] == '-') {
      ++end;
    }
    if (!IsDigit(end)) {
      return Fail("bad number");
    }
    end = s[end] == '0' ? end + 1 : SkipDigits(end);
    if (end < s.size() && s[end] == '.') {
      if (!IsDigit(end + 1)) {
        return Fail("bad number");
      }
      end = SkipDigits(end + 1);
    }
    if (end < s.size() && (s[end] == 'e' || s[end] == 'E')) {
      ++end;
      if (end < s.size() && (s[end] == '+' || s[end] == '-')) {
        ++end;
      }
      if (!IsDigit(end)) {
        return Fail("bad number");
      }
      end = SkipDigits(end);
    }
    if (IsDigit(end)) {
      return Fail("bad number (leading zero)");
    }
    double v = 0.0;
    const auto res = std::from_chars(s.data() + pos, s.data() + end, v);
    if (res.ec != std::errc()) {
      return Fail("number out of range");
    }
    pos = end;
    *out = Json::Number(v);
    return true;
  }
};

}  // namespace

bool Json::Parse(const std::string& text, Json* out, std::string* error) {
  JsonParser parser{text, 0, error};
  if (!parser.ParseValue(out, 0)) {
    return false;
  }
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Fail("trailing garbage");
  }
  return true;
}

}  // namespace crius
