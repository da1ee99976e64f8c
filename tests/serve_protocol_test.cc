#include "src/serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace crius {
namespace serve {
namespace {

TEST(ProtocolParseTest, FlatObjectParses) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(
      R"({"cmd":"submit","gpus":8,"params_billion":1.3,"flag":true,"off":false})", &obj,
      &error))
      << error;
  EXPECT_EQ(obj.StringOr("cmd", ""), "submit");
  EXPECT_DOUBLE_EQ(obj.NumberOr("gpus", 0.0), 8.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("params_billion", 0.0), 1.3);
  EXPECT_TRUE(obj.BoolOr("flag", false));
  EXPECT_FALSE(obj.BoolOr("off", true));
}

TEST(ProtocolParseTest, WhitespaceAndEscapesHandled) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(" { \"a\" : \"x\\\"y\\\\z\" , \"b\" : -2.5e1 } ", &obj, &error))
      << error;
  EXPECT_EQ(obj.StringOr("a", ""), "x\"y\\z");
  EXPECT_DOUBLE_EQ(obj.NumberOr("b", 0.0), -25.0);
}

TEST(ProtocolParseTest, EmptyObjectParses) {
  JsonObject obj;
  std::string error;
  EXPECT_TRUE(ParseJsonObject("{}", &obj, &error)) << error;
  EXPECT_TRUE(obj.fields().empty());
}

TEST(ProtocolParseTest, MalformedInputRejectedNotAborted) {
  JsonObject obj;
  std::string error;
  EXPECT_FALSE(ParseJsonObject("", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("not json", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1} trailing", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1,}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{a:1}", &obj, &error));
  // The root must be an object.
  for (const char* line : {"[1]", "1", "\"submit\"", "true", "null"}) {
    EXPECT_FALSE(ParseJsonObject(line, &obj, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // Numbers follow RFC 8259 and must be finite.
  for (const char* value : {"-inf", "-nan", "-Infinity", "1e999", "0x10", "01", "+1", ".5"}) {
    const std::string line = std::string(R"({"gpus":)") + value + "}";
    EXPECT_FALSE(ParseJsonObject(line, &obj, &error)) << line;
  }
}

TEST(ProtocolParseTest, NestingArraysAndNullRejected) {
  JsonObject obj;
  std::string error;
  EXPECT_FALSE(ParseJsonObject("{\"a\":{\"b\":1}}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":[1,2]}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":null}", &obj, &error));
}

TEST(ProtocolSerializeTest, DeterministicSortedKeys) {
  JsonObject obj;
  obj.Set("zeta", Json::Number(1));
  obj.Set("alpha", Json::Str("x"));
  obj.Set("mid", Json::Bool(true));
  EXPECT_EQ(Serialize(obj), R"({"alpha":"x","mid":true,"zeta":1})");
}

TEST(ProtocolSerializeTest, NumbersIntegerFormattedWhenWhole) {
  JsonObject obj;
  obj.Set("i", Json::Number(42.0));
  obj.Set("d", Json::Number(1.5));
  const std::string line = Serialize(obj);
  EXPECT_NE(line.find("\"i\":42"), std::string::npos);
  EXPECT_EQ(line.find("42.0"), std::string::npos);
  EXPECT_NE(line.find("\"d\":1.5"), std::string::npos);
}

TEST(ProtocolSerializeTest, NonIntegralNumbersInShortestRoundTripForm) {
  const std::pair<const char*, double> fields[] = {
      {"a", 0.1}, {"b", 2.4}, {"c", 1.0 / 3.0}, {"d", -1e-7}, {"e", 1e300}};
  JsonObject obj;
  for (const auto& [key, value] : fields) {
    obj.Set(key, Json::Number(value));
  }
  const std::string line = Serialize(obj);
  EXPECT_EQ(line, R"({"a":0.1,"b":2.4,"c":0.3333333333333333,"d":-1e-07,"e":1e+300})");
  JsonObject back;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(line, &back, &error)) << error;
  for (const auto& [key, value] : fields) {
    EXPECT_EQ(back.NumberOr(key, 0.0), value) << key;
  }
}

TEST(ProtocolSerializeTest, StringsEscaped) {
  JsonObject obj;
  obj.Set("s", Json::Str("a\"b\\c\nd"));
  JsonObject back;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Serialize(obj), &back, &error)) << error;
  EXPECT_EQ(back.StringOr("s", ""), "a\"b\\c\nd");
}

TEST(ProtocolResponseTest, OkAndErrorShapes) {
  EXPECT_EQ(OkResponse(), R"({"ok":true})");
  JsonObject extra;
  extra.Set("job_id", Json::Number(7));
  EXPECT_EQ(OkResponse(extra), R"({"job_id":7,"ok":true})");
  EXPECT_EQ(ErrorResponse(RejectReason::kQueueFull),
            R"({"ok":false,"reason":"queue_full"})");
  EXPECT_EQ(ErrorResponse(RejectReason::kBadRequest, "what"),
            R"({"message":"what","ok":false,"reason":"bad_request"})");
}

TEST(ProtocolSubmitTest, RoundTripThroughRequest) {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kMoe, 2.4, 512};
  job.iterations = 77;
  job.requested_gpus = 16;
  job.requested_type = GpuType::kA40;
  job.deadline = 3600.0;

  TrainingJob parsed;
  std::string error;
  ASSERT_TRUE(ParseSubmitJob(SubmitRequest(job), &parsed, &error)) << error;
  EXPECT_TRUE(parsed.spec == job.spec);
  EXPECT_EQ(parsed.iterations, 77);
  EXPECT_EQ(parsed.requested_gpus, 16);
  EXPECT_EQ(parsed.requested_type, GpuType::kA40);
  ASSERT_TRUE(parsed.deadline.has_value());
  EXPECT_DOUBLE_EQ(*parsed.deadline, 3600.0);
}

JsonObject ValidSubmit() {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kBert, 1.3, 256};
  job.iterations = 10;
  job.requested_gpus = 8;
  return SubmitRequest(job);
}

TEST(ProtocolSubmitTest, ValidationRejectsBadFields) {
  TrainingJob job;
  std::string error;

  JsonObject bad = ValidSubmit();
  bad.Set("family", Json::Str("GPT"));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));
  EXPECT_NE(error.find("family"), std::string::npos);

  bad = ValidSubmit();
  bad.Set("params_billion", Json::Number(3.33));  // unsupported BERT size
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("gpus", Json::Number(0));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("iterations", Json::Number(-1));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("type", Json::Str("H100"));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("deadline", Json::Number(-5));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  // Integer fields must be whole numbers that fit their type.
  const std::pair<const char*, double> not_integers[] = {
      {"gpus", 2.5},           {"gpus", 4294967296.0},  {"iterations", 0.5},
      {"global_batch", 1e300}, {"global_batch", -1e300}, {"iterations", 9007199254740994.0},
  };
  for (const auto& [key, value] : not_integers) {
    bad = ValidSubmit();
    bad.Set(key, Json::Number(value));
    EXPECT_FALSE(ParseSubmitJob(bad, &job, &error)) << key << "=" << value;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
  bad = ValidSubmit();
  bad.Set("gpus", Json::Str("8"));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));
  EXPECT_EQ(error, "gpus must be an integer");
}

TEST(ProtocolIntegerFieldTest, ReadsWholeNumbersInRange) {
  JsonObject request;
  request.Set("n", Json::Number(7));
  request.Set("neg", Json::Number(-3));
  request.Set("big", Json::Number(static_cast<double>(kMaxExactInteger)));
  request.Set("flag", Json::Bool(true));
  int64_t out = 0;
  std::string error;
  EXPECT_TRUE(IntegerField(request, "n", 1, 10, 0, &out, &error));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(IntegerField(request, "missing", -5, 5, -1, &out, &error));
  EXPECT_EQ(out, -1);
  EXPECT_TRUE(IntegerField(request, "big", 0, kMaxExactInteger, 0, &out, &error));
  EXPECT_EQ(out, kMaxExactInteger);

  EXPECT_FALSE(IntegerField(request, "neg", 0, 10, 0, &out, &error));
  EXPECT_EQ(error, "neg must be >= 0");
  EXPECT_FALSE(IntegerField(request, "n", 0, 5, 0, &out, &error));
  EXPECT_EQ(error, "n must be <= 5");
  EXPECT_FALSE(IntegerField(request, "flag", 0, 5, 0, &out, &error));
  EXPECT_EQ(error, "flag must be an integer");
  // An absent field's fallback is range-checked too.
  EXPECT_FALSE(IntegerField(request, "missing", 1, 5, 0, &out, &error));
  EXPECT_EQ(error, "missing must be >= 1");
}

TEST(ProtocolSubmitTest, SupportedSizeSnapsExactly) {
  // A client that sends 0.7600000001 means BERT-0.76B; the parsed job must
  // carry the exact supported size so the oracle's lookups hit.
  JsonObject request = ValidSubmit();
  request.Set("family", Json::Str("BERT"));
  request.Set("params_billion", Json::Number(0.76 + 1e-10));
  TrainingJob job;
  std::string error;
  ASSERT_TRUE(ParseSubmitJob(request, &job, &error)) << error;
  EXPECT_EQ(job.spec.params_billion, 0.76);
}

}  // namespace
}  // namespace serve
}  // namespace crius
