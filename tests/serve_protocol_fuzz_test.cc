// Seeded mutation fuzzer for the serve request path: valid request lines are
// mutated (byte flips, truncations, splices of JSON fragments the protocol
// must reject) and fed through ParseJsonObject, ParseSubmitJob and
// IntegerField. Properties:
//   * every input gets a status back -- nothing aborts, a rejected line
//     carries a message, and the bad_request line built from it parses;
//   * a line that parses re-serializes to the same fields;
//   * an accepted job or integer field is in range.
// The generator is the repository's xoshiro Rng, so a failure reproduces
// from the (seed, iteration) pair it prints.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "src/serve/protocol.h"
#include "src/util/rng.h"

namespace crius {
namespace serve {
namespace {

constexpr uint64_t kSeed = 20260517;
constexpr int kIterations = 25000;

const std::vector<std::string>& SeedLines() {
  static const std::vector<std::string> lines = {
      R"({"cmd":"submit","family":"BERT","params_billion":0.76,"global_batch":256,)"
      R"("iterations":20,"gpus":8,"type":"A40"})",
      R"({"cmd":"submit","family":"MoE","params_billion":2.4,"global_batch":512,)"
      R"("iterations":77,"gpus":16,"type":"A100","deadline":3600.5})",
      R"({"cmd":"cancel","job_id":12})",
      R"({"cmd":"fail-node","node_id":3})",
      R"({"cmd":"recover-node","node_id":0})",
      R"({"cmd":"query","job_id":7})",
      R"({"cmd":"stats"})",
      R"({"cmd":"metrics","format":"prometheus"})",
      R"({"cmd":"shutdown","mode":"drain","flag":true})",
  };
  return lines;
}

// Fragments a mutation splices in: nesting, null, and non-finite or
// non-JSON numbers, plus a control-character escape and plain digits.
const std::vector<std::string>& Splices() {
  static const std::vector<std::string> splices = {
      "{", "[", "null", "-inf", "1e999", "\\u0001", "}", "]", ",", ":", "\"", "0", "-", "2.5",
      "1e300", "0x10", "\\", "true",
  };
  return splices;
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

void Mutate(Rng& rng, std::string* line) {
  const int edits = static_cast<int>(rng.UniformInt(1, 3));
  for (int e = 0; e < edits && !line->empty(); ++e) {
    const size_t at = Pick(rng, line->size());
    switch (rng.UniformInt(0, 3)) {
      case 0:  // flip one bit
        (*line)[at] = static_cast<char>((*line)[at] ^ (1 << rng.UniformInt(0, 7)));
        break;
      case 1:  // truncate
        line->resize(at);
        break;
      case 2:  // insert a fragment
        line->insert(at, Splices()[Pick(rng, Splices().size())]);
        break;
      default: {  // overwrite a short run with a fragment
        const size_t len = static_cast<size_t>(rng.UniformInt(1, 6));
        line->replace(at, len, Splices()[Pick(rng, Splices().size())]);
        break;
      }
    }
  }
}

bool SameValue(const Json& a, const Json& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case Json::Kind::kString: return a.str() == b.str();
    case Json::Kind::kNumber: return a.number() == b.number();
    case Json::Kind::kBool: return a.boolean() == b.boolean();
    default: return false;  // not part of the flat protocol
  }
}

TEST(ProtocolFuzzTest, MutatedRequestLinesAlwaysGetAStatus) {
  Rng rng(kSeed, "serve.protocol.fuzz");
  int parsed = 0;
  int submits_ok = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string line = SeedLines()[Pick(rng, SeedLines().size())];
    Mutate(rng, &line);
    const auto where = [&] {
      return "seed " + std::to_string(kSeed) + " iteration " + std::to_string(i) + ": " + line;
    };

    JsonObject request;
    std::string error;
    if (!ParseJsonObject(line, &request, &error)) {
      ASSERT_FALSE(error.empty()) << where();
      JsonObject status;
      std::string status_error;
      ASSERT_TRUE(ParseJsonObject(ErrorResponse(RejectReason::kBadRequest, error), &status,
                                  &status_error))
          << where() << " -> " << status_error;
      EXPECT_EQ(status.StringOr("message", ""), error) << where();
      continue;
    }
    ++parsed;

    // Re-serialize and parse back: the same fields, nothing more.
    JsonObject back;
    ASSERT_TRUE(ParseJsonObject(Serialize(request), &back, &error)) << where() << " " << error;
    ASSERT_EQ(back.fields().size(), request.fields().size()) << where();
    for (const auto& [key, value] : request.fields()) {
      const Json* other = back.Find(key);
      ASSERT_TRUE(other != nullptr && SameValue(value, *other)) << where() << " key " << key;
    }

    TrainingJob job;
    if (ParseSubmitJob(request, &job, &error)) {
      ++submits_ok;
      EXPECT_GE(job.requested_gpus, 1) << where();
      EXPECT_GE(job.iterations, 1) << where();
      EXPECT_GE(job.spec.global_batch, 1) << where();
    } else {
      EXPECT_FALSE(error.empty()) << where();
    }

    for (const char* key : {"job_id", "node_id", "gpus"}) {
      int64_t value = 0;
      if (IntegerField(request, key, INT_MIN, INT_MAX, -1, &value, &error)) {
        EXPECT_TRUE(value >= INT_MIN && value <= INT_MAX) << where();
        EXPECT_EQ(static_cast<double>(value), request.NumberOr(key, -1.0)) << where();
      } else {
        EXPECT_FALSE(error.empty()) << where();
      }
    }
  }
  // The mutations must leave enough lines intact to exercise the field
  // readers, not just the parser's reject paths.
  EXPECT_GT(parsed, kIterations / 10);
  EXPECT_GT(submits_ok, kIterations / 200);
}

}  // namespace
}  // namespace serve
}  // namespace crius
