// Tests for the generic JSON tree (src/util/json.h): builders, parse /
// serialize round-trips, deterministic output, and error reporting.

#include "src/util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace crius {
namespace {

TEST(JsonTest, BuildersProduceExpectedKinds) {
  EXPECT_TRUE(Json::Null().is_null());
  EXPECT_TRUE(Json::Bool(true).is_bool());
  EXPECT_TRUE(Json::Number(3.5).is_number());
  EXPECT_TRUE(Json::Str("x").is_string());
  EXPECT_TRUE(Json::Array().is_array());
  EXPECT_TRUE(Json::Object().is_object());
  EXPECT_TRUE(Json().is_null());  // default-constructed is null
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndReplacesInPlace) {
  Json obj = Json::Object();
  obj.Set("zulu", Json::Number(1));
  obj.Set("alpha", Json::Number(2));
  obj.Set("mike", Json::Number(3));
  obj.Set("zulu", Json::Number(9));  // replace keeps first-insertion slot
  ASSERT_EQ(obj.fields().size(), 3u);
  EXPECT_EQ(obj.fields()[0].first, "zulu");
  EXPECT_EQ(obj.fields()[0].second.number(), 9.0);
  EXPECT_EQ(obj.fields()[1].first, "alpha");
  EXPECT_EQ(obj.fields()[2].first, "mike");
  EXPECT_EQ(obj.Serialize(), R"({"zulu":9,"alpha":2,"mike":3})");
}

TEST(JsonTest, AccessorsFallBackOnMissingOrMismatchedKind) {
  Json obj = Json::Object();
  obj.Set("n", Json::Number(4.0));
  obj.Set("s", Json::Str("hi"));
  obj.Set("b", Json::Bool(true));
  EXPECT_DOUBLE_EQ(obj.NumberOr("n", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("s", -1.0), -1.0);  // kind mismatch
  EXPECT_EQ(obj.StringOr("s", "fb"), "hi");
  EXPECT_EQ(obj.StringOr("n", "fb"), "fb");
  EXPECT_TRUE(obj.BoolOr("b", false));
  EXPECT_TRUE(obj.BoolOr("missing", true));
  EXPECT_EQ(obj.Find("missing"), nullptr);
  ASSERT_NE(obj.Find("n"), nullptr);
}

TEST(JsonTest, SerializeCompactAndPretty) {
  Json obj = Json::Object();
  obj.Set("a", Json::Number(1));
  Json arr = Json::Array();
  arr.Push(Json::Bool(false));
  arr.Push(Json::Null());
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Serialize(), R"({"a":1,"list":[false,null]})");
  const std::string pretty = obj.Serialize(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1,"), std::string::npos);
  EXPECT_NE(pretty.find("\"list\": [\n"), std::string::npos);
}

TEST(JsonTest, ParseSerializeRoundTrip) {
  const std::string text =
      R"({"name":"crius","pi":3.14159,"neg":-0.5,"big":1e6,"flag":true,)"
      R"("nothing":null,"nested":{"inner":[1,2,3],"s":"a\"b\\c"}})";
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &parsed, &error)) << error;
  // Serialize -> parse -> serialize must be a fixed point.
  const std::string once = parsed.Serialize();
  Json reparsed;
  ASSERT_TRUE(Json::Parse(once, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.Serialize(), once);
  EXPECT_EQ(parsed.StringOr("name", ""), "crius");
  EXPECT_DOUBLE_EQ(parsed.NumberOr("pi", 0.0), 3.14159);
  const Json* nested = parsed.Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->StringOr("s", ""), "a\"b\\c");
  const Json* inner = nested->Find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->items().size(), 3u);
  EXPECT_DOUBLE_EQ(inner->items()[2].number(), 3.0);
}

TEST(JsonTest, ParseHandlesEscapes) {
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(R"(["\n\t\r\b\f\/\u0041"])", &parsed, &error)) << error;
  ASSERT_EQ(parsed.items().size(), 1u);
  EXPECT_EQ(parsed.items()[0].str(), "\n\t\r\b\f/A");
}

TEST(JsonTest, EscapeStringQuotesAndControls) {
  EXPECT_EQ(Json::EscapeString("plain"), "\"plain\"");
  EXPECT_EQ(Json::EscapeString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Json::EscapeString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(Json::EscapeString(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, ParseRejectsMalformedInputWithOffset) {
  const char* const cases[] = {
      "",               // empty input
      "{",              // unterminated object
      "[1,2,",          // unterminated array
      "{\"a\" 1}",      // missing colon
      "[1] trailing",   // trailing garbage
      "{'a':1}",        // single quotes
      "[01]",           // leading zero (RFC 8259)
      "nan",
      "\"unterminated",
      // Non-JSON or non-finite numbers that a bare strtod would accept.
      "-inf",
      "-nan",
      "-Infinity",
      "1e999",
      "0x10",
  };
  for (const char* text : cases) {
    Json out;
    std::string error;
    EXPECT_FALSE(Json::Parse(text, &out, &error)) << "input: " << text;
    EXPECT_FALSE(error.empty()) << "input: " << text;
  }
}

// Strings carry well-formed UTF-8 and no raw control characters; only
// space, tab, newline and carriage return count as whitespace.
TEST(JsonTest, ParseIsStrictAboutStringBytesAndWhitespace) {
  const char* const bad[] = {
      "\"a\x01" "b\"",          // raw U+0001
      "\"a\tb\"",               // raw tab inside a string
      "\v{}",                   // vertical tab is not JSON whitespace
      "{}\f",                   // nor is form feed
      "\"\x80\"",               // stray continuation byte
      "\"\xc3\x28\"",           // lead byte without its continuation
      "\"\xc0\xaf\"",           // overlong '/'
      "\"\xe0\x80\xaf\"",       // overlong, three bytes
      "\"\xed\xa0\x80\"",       // UTF-16 surrogate U+D800
      "\"\xf4\x90\x80\x80\"",   // above U+10FFFF
      "\"\xe2\x82\"",           // sequence cut short by the quote
      "\"\xf0\x9f\x98",         // sequence cut short by the end of input
      "\"\xff\"",               // never valid in UTF-8
  };
  for (const char* text : bad) {
    Json out;
    std::string error;
    EXPECT_FALSE(Json::Parse(text, &out, &error)) << "input: " << text;
    for (const char c : error) {
      EXPECT_TRUE(c >= 0x20 && c <= 0x7e) << "non-ASCII byte in error: " << error;
    }
  }
  const char* const good[] = {"\"\xc3\xa9\"", "\"\xe2\x82\xac\"", "\"\xf0\x9f\x98\x80\"",
                              "\"\xf4\x8f\xbf\xbf\"", " \t\r\n\"\\u0001\" "};
  for (const char* text : good) {
    Json out;
    std::string error;
    ASSERT_TRUE(Json::Parse(text, &out, &error)) << "input: " << text << ": " << error;
    EXPECT_TRUE(out.is_string());
  }
  Json out;
  std::string error;
  ASSERT_TRUE(Json::Parse("\"caf\xc3\xa9\"", &out, &error)) << error;
  EXPECT_EQ(out.str(), "caf\xc3\xa9");
}

TEST(JsonTest, ParseFollowsNumberGrammar) {
  const char* const bad[] = {"-", "+1", ".5", "1.", "1e", "1e+", "-.5", "--1", "1.e5"};
  for (const char* text : bad) {
    Json out;
    std::string error;
    EXPECT_FALSE(Json::Parse(text, &out, &error)) << "input: " << text;
  }
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},      {"-0", 0.0},    {"12", 12.0},    {"-3.25", -3.25},
      {"1e3", 1000.0}, {"2E-2", 0.02}, {"0.5e+1", 5.0},
      {"1.7976931348623157e308", 1.7976931348623157e308},
  };
  for (const auto& [text, value] : good) {
    Json out;
    std::string error;
    ASSERT_TRUE(Json::Parse(text, &out, &error)) << "input: " << text << ": " << error;
    EXPECT_EQ(out.number(), value) << "input: " << text;
  }
}

TEST(JsonTest, ParseReportsByteOffset) {
  Json out;
  std::string error;
  ASSERT_FALSE(Json::Parse(R"({"ok":true,broken})", &out, &error));
  // The offset of the first bad byte (the 'b' at index 11) should appear in
  // the message so operators can locate the problem in large files.
  EXPECT_NE(error.find("11"), std::string::npos) << error;
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  Json out;
  std::string error;
  EXPECT_FALSE(Json::Parse(deep, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, FormatJsonNumberShortestRoundTrip) {
  EXPECT_EQ(FormatJsonNumber(0.0), "0");
  EXPECT_EQ(FormatJsonNumber(-0.0), "0");
  EXPECT_EQ(FormatJsonNumber(1.0), "1");
  EXPECT_EQ(FormatJsonNumber(0.5), "0.5");
  EXPECT_EQ(FormatJsonNumber(3.0), "3");
  // Shortest form that round-trips, not a fixed precision.
  EXPECT_EQ(FormatJsonNumber(0.1), "0.1");
  // Whole numbers below 1e15 stay in plain digits, not the shorter "1e+05".
  EXPECT_EQ(FormatJsonNumber(100000.0), "100000");
  EXPECT_EQ(FormatJsonNumber(-2000000.0), "-2000000");
  EXPECT_EQ(FormatJsonNumber(999999999999999.0), "999999999999999");
  EXPECT_EQ(FormatJsonNumber(1e15), "1e+15");
}

}  // namespace
}  // namespace crius
