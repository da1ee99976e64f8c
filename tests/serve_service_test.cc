// Protocol dispatch (HandleRequest) and the full socket path
// (Server + Client) against a live Controller.

#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/serve/client.h"
#include "src/serve/replay.h"
#include "src/util/counters.h"
#include "tests/metrics_json_util.h"

namespace crius {
namespace serve {
namespace {

using test::ParseMetricsJson;

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : runtime_(MakeSessionRuntime(SessionMeta{})) {
    Controller::Config config;
    config.tick_virtual_seconds = 60.0;
    config.tick_wall_seconds = 0.001;
    controller_ = std::make_unique<Controller>(runtime_.cluster, runtime_.sim,
                                               *runtime_.scheduler, *runtime_.oracle,
                                               /*log=*/nullptr, config);
  }

  ~ServiceTest() override {
    if (started_ && !controller_->done()) {
      controller_->Shutdown(/*drain=*/false);
    }
    if (started_) {
      controller_->Join();
    }
  }

  void StartController() {
    controller_->Start();
    started_ = true;
  }

  std::string Handle(const std::string& line) { return HandleRequest(*controller_, line); }

  SessionRuntime runtime_;
  std::unique_ptr<Controller> controller_;
  bool started_ = false;
};

TEST_F(ServiceTest, MalformedJsonRejectedAsBadRequest) {
  StartController();
  JsonObject response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle("not json"), &response, &error)) << error;
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
  EXPECT_FALSE(response.StringOr("message", "").empty());
}

// Raw control bytes, \v or \f as whitespace, and malformed UTF-8 are bad
// requests, and the answer is plain ASCII even when the request line was
// not valid UTF-8.
TEST_F(ServiceTest, StrictJsonAnswersBadRequestInAscii) {
  const std::string lines[] = {"{\"cmd\":\"a\x01" "b\"}", "\v{}", "\xff",
                               "{\"cmd\":\"\xc3\x28\"}"};
  for (const std::string& line : lines) {
    const std::string answer = Handle(line);
    for (const char c : answer) {
      EXPECT_TRUE(c >= 0x20 && c <= 0x7e) << "non-ASCII byte in: " << answer;
    }
    JsonObject response;
    std::string error;
    ASSERT_TRUE(ParseJsonObject(answer, &response, &error)) << error;
    EXPECT_EQ(response.StringOr("reason", ""), "bad_request") << answer;
  }
  EXPECT_EQ(Handle("\xff"),
            R"({"message":"unexpected character '\\xff' at offset 0","ok":false,)"
            R"("reason":"bad_request"})");
  // Well-formed multi-byte UTF-8 still parses (and is echoed back intact).
  EXPECT_EQ(Handle("{\"cmd\":\"\xc3\xa9\"}"),
            "{\"message\":\"unknown cmd '\xc3\xa9'\",\"ok\":false,\"reason\":\"bad_request\"}");
}

TEST_F(ServiceTest, UnknownCommandRejected) {
  StartController();
  JsonObject response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"resize"})"), &response, &error)) << error;
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
}

TEST_F(ServiceTest, SubmitQueryStatsShutdownOverDispatch) {
  StartController();
  JsonObject response;
  std::string error;

  ASSERT_TRUE(ParseJsonObject(
      Handle(R"({"cmd":"submit","family":"BERT","params_billion":0.76,)"
             R"("global_batch":256,"iterations":20,"gpus":8,"type":"A40"})"),
      &response, &error))
      << error;
  ASSERT_TRUE(response.BoolOr("ok", false));
  const int64_t job_id = static_cast<int64_t>(response.NumberOr("job_id", -1));
  EXPECT_GE(job_id, 1);
  EXPECT_EQ(response.StringOr("status", ""), "queued");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"query","job_id":999})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "unknown_job");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"stats"})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_TRUE(response.Find("virtual_now") != nullptr);
  EXPECT_TRUE(response.Find("live_jobs") != nullptr);
  EXPECT_TRUE(response.Find("latency_p99_ms") != nullptr);

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"shutdown","mode":"sideways"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"shutdown","mode":"drain"})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  controller_->Join();
  EXPECT_TRUE(controller_->done());
}

// One exact response line per verb, from a controller whose round loop has
// not started (so no field depends on tick timing). Every number here is
// integer-valued; the key order is the sorted wire order.
TEST_F(ServiceTest, WireLinesPinnedPerVerb) {
  EXPECT_EQ(Handle(R"({"cmd":"submit","family":"BERT","params_billion":0.76,)"
                   R"("global_batch":256,"iterations":20,"gpus":8,"type":"A40"})"),
            R"({"job_id":1,"ok":true,"status":"queued"})");
  EXPECT_EQ(Handle(R"({"cmd":"query","job_id":1})"),
            R"({"finish_time":-1,"first_start":-1,"job_id":1,"ok":true,"restarts":0,)"
            R"("status":"accepted","submit_time":-1})");
  EXPECT_EQ(Handle(R"({"cmd":"query","job_id":999})"), R"({"ok":false,"reason":"unknown_job"})");
  EXPECT_EQ(Handle(R"({"cmd":"cancel","job_id":1})"), R"({"ok":true})");
  EXPECT_EQ(Handle(R"({"cmd":"fail-node","node_id":0})"), R"({"ok":true})");
  EXPECT_EQ(Handle(R"({"cmd":"fail-node","node_id":100000})"),
            R"({"ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"submit","family":"GPT","params_billion":1,)"
                   R"("global_batch":256,"iterations":20,"gpus":8})"),
            R"({"message":"unknown family 'GPT'","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"shutdown","mode":"drain"})"), R"({"ok":true})");
  EXPECT_EQ(Handle(R"({"cmd":"submit","family":"BERT","params_billion":0.76,)"
                   R"("global_batch":256,"iterations":20,"gpus":8,"type":"A40"})"),
            R"({"ok":false,"reason":"shutting_down"})");
}

// Integer fields must be whole numbers in range: a fractional GPU count or
// node id is a bad request, not silently truncated, and an id too large for
// an integer is rejected before any conversion.
TEST_F(ServiceTest, IntegerFieldsMustBeWholeAndInRange) {
  const std::string submit_prefix =
      R"({"cmd":"submit","family":"BERT","params_billion":0.76,"type":"A40",)";
  EXPECT_EQ(Handle(submit_prefix + R"("global_batch":256,"iterations":20,"gpus":2.5})"),
            R"({"message":"gpus must be an integer","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(submit_prefix + R"("global_batch":1e300,"iterations":20,"gpus":8})"),
            R"({"message":"global_batch must be <= 9007199254740992","ok":false,)"
            R"("reason":"bad_request"})");
  EXPECT_EQ(Handle(submit_prefix + R"("global_batch":256,"iterations":-1e300,"gpus":8})"),
            R"({"message":"iterations must be >= 1","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"fail-node","node_id":0.5})"),
            R"({"message":"node_id must be an integer","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"recover-node","node_id":1e300})"),
            R"({"message":"node_id must be <= 2147483647","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"cancel","job_id":"1"})"),
            R"({"message":"job_id must be an integer","ok":false,"reason":"bad_request"})");
  EXPECT_EQ(Handle(R"({"cmd":"query","job_id":1.5})"),
            R"({"message":"job_id must be an integer","ok":false,"reason":"bad_request"})");
  // Nothing above reached the controller.
  EXPECT_EQ(controller_->GetStats().accepted, 0u);
  EXPECT_EQ(Handle(R"({"cmd":"query","job_id":1})"), R"({"ok":false,"reason":"unknown_job"})");
}

TEST_F(ServiceTest, NodeCommandsValidateRange) {
  StartController();
  JsonObject response;
  std::string error;
  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"fail-node","node_id":100000})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"fail-node"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"fail-node","node_id":0})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"recover-node","node_id":0})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
}

TEST_F(ServiceTest, StatsIncludeRegistryEnrichment) {
  StartController();
  JsonObject response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"stats"})"), &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_TRUE(response.Find("queue_depth") != nullptr);
  EXPECT_GE(response.NumberOr("queue_depth", -1.0), 0.0);
  EXPECT_TRUE(response.Find("uptime_seconds") != nullptr);
  EXPECT_GE(response.NumberOr("uptime_seconds", -1.0), 0.0);
}

// Every RejectReason with a non-zero counter appears in stats, with its count
// and in enum order.
TEST_F(ServiceTest, StatsCountEveryRejectReason) {
  CounterRegistry& registry = CounterRegistry::Global();
  registry.Reset();
  for (size_t i = 0; i < kNumRejectReasons; ++i) {
    registry
        .GetCounter("serve.ingress.rejected_by_reason",
                    {{"reason", RejectReasonName(static_cast<RejectReason>(i))}})
        .Add(static_cast<int64_t>(i) + 1);
  }
  const Controller::Stats stats = controller_->GetStats();
  ASSERT_EQ(stats.rejected_by_reason.size(), kNumRejectReasons);
  for (size_t i = 0; i < kNumRejectReasons; ++i) {
    EXPECT_EQ(stats.rejected_by_reason[i].first,
              RejectReasonName(static_cast<RejectReason>(i)));
    EXPECT_EQ(stats.rejected_by_reason[i].second, static_cast<int64_t>(i) + 1);
  }
  registry.Reset();
}

TEST_F(ServiceTest, MetricsVerbReturnsParseableSnapshot) {
  // The registry is process-global; start from a clean slate so this test
  // sees only what the live controller records.
  CounterRegistry::Global().Reset();
  StartController();
  // Wait until at least one full tick has recorded its phase breakdown.
  for (int spin = 0; spin < 500 && controller_->GetStats().ticks < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(controller_->GetStats().ticks, 2u);

  JsonObject response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"metrics"})"), &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_EQ(response.StringOr("format", ""), "json");

  // The snapshot rides inside the flat protocol as an escaped string field;
  // parse it back out into a MetricsSnapshot.
  MetricsSnapshot snapshot;
  ASSERT_TRUE(ParseMetricsJson(response.StringOr("metrics", ""), &snapshot, &error)) << error;

  bool saw_round = false;
  int phase_entries = 0;
  for (const HistogramSample& sample : snapshot.histograms) {
    if (sample.name == "serve.round_ms") {
      saw_round = true;
      EXPECT_GE(sample.value.count, 1u);
    }
    if (sample.name == "serve.phase_ms") {
      ++phase_entries;
      EXPECT_EQ(sample.labels.size(), 1u);
      EXPECT_TRUE(sample.labels.count("phase"));
    }
  }
  EXPECT_TRUE(saw_round);
  EXPECT_EQ(phase_entries, 4);  // drain / apply / schedule / log

  bool saw_depth_gauge = false;
  for (const MetricSample& sample : snapshot.gauges) {
    if (sample.name == "serve.queue_depth") {
      saw_depth_gauge = true;
    }
  }
  EXPECT_TRUE(saw_depth_gauge);
}

TEST_F(ServiceTest, MetricsVerbSpeaksPrometheus) {
  StartController();
  JsonObject response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"metrics","format":"prometheus"})"), &response,
                              &error))
      << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_EQ(response.StringOr("format", ""), "prometheus");
  EXPECT_NE(response.StringOr("metrics", "").find("# TYPE "), std::string::npos);

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"metrics","format":"xml"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
}

TEST_F(ServiceTest, ClientMetricsHelperOverSocket) {
  StartController();
  const std::string socket_path = ::testing::TempDir() + "/crius_service_metrics_test.sock";
  Server server(socket_path, MakeHandler(*controller_));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  JsonObject response;
  ASSERT_TRUE(client.Metrics("json", &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  MetricsSnapshot snapshot;
  EXPECT_TRUE(ParseMetricsJson(response.StringOr("metrics", ""), &snapshot, &error)) << error;
  server.Stop();
}

TEST_F(ServiceTest, EndToEndOverUnixSocket) {
  StartController();
  const std::string socket_path = ::testing::TempDir() + "/crius_service_test.sock";
  Server server(socket_path, MakeHandler(*controller_));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;

  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kBert, 0.76, 256};
  job.iterations = 20;
  job.requested_gpus = 8;
  job.requested_type = GpuType::kA40;

  JsonObject response;
  ASSERT_TRUE(client.Submit(job, &response, &error)) << error;
  ASSERT_TRUE(response.BoolOr("ok", false));
  const int64_t job_id = static_cast<int64_t>(response.NumberOr("job_id", -1));

  ASSERT_TRUE(client.FailNode(0, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  ASSERT_TRUE(client.RecoverNode(0, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));

  ASSERT_TRUE(client.Query(job_id, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_FALSE(response.StringOr("status", "").empty());

  // A second concurrent connection is served too.
  Client other;
  ASSERT_TRUE(other.Connect(socket_path, &error)) << error;
  ASSERT_TRUE(other.Stats(&response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));

  ASSERT_TRUE(client.Shutdown(/*drain=*/true, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  controller_->Join();
  EXPECT_TRUE(controller_->done());
  EXPECT_FALSE(controller_->interrupted());
  server.Stop();

  const Controller::JobStatus status = controller_->Query(job_id);
  ASSERT_TRUE(status.known);
  EXPECT_EQ(status.state, "finished");
}

}  // namespace
}  // namespace serve
}  // namespace crius
