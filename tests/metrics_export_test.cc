// Tests for the machine-readable metric exporters
// (src/util/metrics_export.h): JSON round-trip, Prometheus golden output,
// label-ordering determinism, and the periodic CSV writer.

#include "src/util/metrics_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/util/counters.h"
#include "tests/metrics_json_util.h"

namespace crius {
namespace {

using test::ParseMetricsJson;

class MetricsExportTest : public ::testing::Test {
 protected:
  void SetUp() override { CounterRegistry::Global().Reset(); }
  void TearDown() override { CounterRegistry::Global().Reset(); }
};

// Hand-built snapshot with one of everything, labels included.
MetricsSnapshot MakeSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back(
      {"serve.ingress.rejected_by_reason", {{"reason", "queue_full"}}, 3.0});
  snapshot.counters.push_back({"serve.ticks", {}, 42.0});
  snapshot.gauges.push_back({"serve.queue_depth", {}, 7.0});
  HistogramSample hist;
  hist.name = "serve.phase_ms";
  hist.labels = {{"phase", "drain"}};
  hist.value = HistogramSnapshot{2, 3.0, 1.5, 1.0, 2.0, 1.5, 2.0, 2.0};
  snapshot.histograms.push_back(std::move(hist));
  return snapshot;
}

TEST_F(MetricsExportTest, JsonRoundTripPreservesEverything) {
  const MetricsSnapshot original = MakeSnapshot();
  const std::string text = MetricsToJson(original, /*indent=*/2);
  MetricsSnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseMetricsJson(text, &parsed, &error)) << error;

  ASSERT_EQ(parsed.counters.size(), 2u);
  EXPECT_EQ(parsed.counters[0].name, "serve.ingress.rejected_by_reason");
  EXPECT_EQ(parsed.counters[0].labels, (MetricLabels{{"reason", "queue_full"}}));
  EXPECT_DOUBLE_EQ(parsed.counters[0].value, 3.0);
  EXPECT_EQ(parsed.counters[1].name, "serve.ticks");
  EXPECT_TRUE(parsed.counters[1].labels.empty());
  EXPECT_DOUBLE_EQ(parsed.counters[1].value, 42.0);

  ASSERT_EQ(parsed.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.gauges[0].value, 7.0);

  ASSERT_EQ(parsed.histograms.size(), 1u);
  const HistogramSample& h = parsed.histograms[0];
  EXPECT_EQ(h.name, "serve.phase_ms");
  EXPECT_EQ(h.labels, (MetricLabels{{"phase", "drain"}}));
  EXPECT_EQ(h.value.count, 2u);
  EXPECT_DOUBLE_EQ(h.value.sum, 3.0);
  EXPECT_DOUBLE_EQ(h.value.mean, 1.5);
  EXPECT_DOUBLE_EQ(h.value.min, 1.0);
  EXPECT_DOUBLE_EQ(h.value.max, 2.0);
  EXPECT_DOUBLE_EQ(h.value.p50, 1.5);
  EXPECT_DOUBLE_EQ(h.value.p95, 2.0);
  EXPECT_DOUBLE_EQ(h.value.p99, 2.0);

  // Compact and pretty forms parse to the same snapshot.
  MetricsSnapshot compact;
  ASSERT_TRUE(ParseMetricsJson(MetricsToJson(original), &compact, &error)) << error;
  EXPECT_EQ(compact.counters.size(), parsed.counters.size());
}

TEST_F(MetricsExportTest, JsonRoundTripThroughLiveRegistry) {
  CounterRegistry& registry = CounterRegistry::Global();
  registry.GetCounter("test.export_counter").Add(5);
  registry.GetCounter("test.labeled", {{"shard", "0"}, {"scheduler", "crius"}}).Add(2);
  registry.GetGauge("test.export_gauge").Set(1.25);
  registry.GetHistogram("test.export_hist", {{"phase", "apply"}}).Record(4.0);

  const std::string text = MetricsToJson(registry.Snapshot());
  MetricsSnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseMetricsJson(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.counters.size(), 2u);
  // Snapshot order is canonical-name order: "test.export_counter" sorts
  // before "test.labeled{...}".
  EXPECT_EQ(parsed.counters[0].name, "test.export_counter");
  EXPECT_EQ(parsed.counters[1].name, "test.labeled");
  EXPECT_EQ(parsed.counters[1].labels,
            (MetricLabels{{"scheduler", "crius"}, {"shard", "0"}}));
  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].value.count, 1u);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].value.sum, 4.0);
}

TEST_F(MetricsExportTest, ParseRejectsMalformedDocuments) {
  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(ParseMetricsJson("not json", &out, &error));
  EXPECT_FALSE(error.empty());
  // Wrong schema version.
  EXPECT_FALSE(ParseMetricsJson(R"({"schema":99,"counters":[]})", &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Counters must be an array.
  EXPECT_FALSE(ParseMetricsJson(R"({"schema":1,"counters":{}})", &out, &error));
  // Entries need a name.
  EXPECT_FALSE(ParseMetricsJson(R"({"schema":1,"counters":[{"value":1}]})", &out, &error));
  // Label values must be strings.
  EXPECT_FALSE(ParseMetricsJson(
      R"({"schema":1,"counters":[{"name":"x","labels":{"k":1},"value":1}]})", &out, &error));
  // Top level must be an object.
  EXPECT_FALSE(ParseMetricsJson("[1,2]", &out, &error));
  // A schema or histogram count too large or fractional for its integer
  // type is rejected, not cast.
  EXPECT_FALSE(ParseMetricsJson(R"({"schema":1e300})", &out, &error));
  EXPECT_FALSE(ParseMetricsJson(R"({"schema":1.5})", &out, &error));
  EXPECT_EQ(error, "unsupported metrics schema 1.5");
  EXPECT_FALSE(
      ParseMetricsJson(R"({"schema":1,"histograms":[{"name":"h","count":1e300}]})", &out, &error));
  EXPECT_NE(error.find("count"), std::string::npos);
  EXPECT_FALSE(
      ParseMetricsJson(R"({"schema":1,"histograms":[{"name":"h","count":-1}]})", &out, &error));
}

TEST_F(MetricsExportTest, PrometheusGolden) {
  const std::string expected =
      "# TYPE serve_ingress_rejected_by_reason counter\n"
      "serve_ingress_rejected_by_reason{reason=\"queue_full\"} 3\n"
      "# TYPE serve_ticks counter\n"
      "serve_ticks 42\n"
      "# TYPE serve_queue_depth gauge\n"
      "serve_queue_depth 7\n"
      "# TYPE serve_phase_ms summary\n"
      "serve_phase_ms{phase=\"drain\",quantile=\"0.5\"} 1.5\n"
      "serve_phase_ms{phase=\"drain\",quantile=\"0.95\"} 2\n"
      "serve_phase_ms{phase=\"drain\",quantile=\"0.99\"} 2\n"
      "serve_phase_ms_sum{phase=\"drain\"} 3\n"
      "serve_phase_ms_count{phase=\"drain\"} 2\n";
  EXPECT_EQ(MetricsToPrometheus(MakeSnapshot()), expected);
}

TEST_F(MetricsExportTest, PrometheusEscapesLabelValuesAndSanitizesNames) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"a.b-c", {{"msg", "say \"hi\"\nnow"}}, 1.0});
  const std::string text = MetricsToPrometheus(snapshot);
  EXPECT_NE(text.find("a_b_c{msg=\"say \\\"hi\\\"\\nnow\"} 1\n"), std::string::npos) << text;
}

TEST_F(MetricsExportTest, LabelOrderingIsDeterministic) {
  // The same label set written in two different orders canonicalizes to one
  // name and therefore one registry entry.
  const std::string a =
      CanonicalMetricName("m", MetricLabels{{"zeta", "1"}, {"alpha", "2"}});
  const std::string b =
      CanonicalMetricName("m", MetricLabels{{"alpha", "2"}, {"zeta", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, R"(m{alpha="2",zeta="1"})");

  CounterRegistry& registry = CounterRegistry::Global();
  registry.GetCounter("test.order", {{"b", "2"}, {"a", "1"}}).Add(1);
  registry.GetCounter("test.order", {{"a", "1"}, {"b", "2"}}).Add(1);
  EXPECT_EQ(registry.CounterValue(
                CanonicalMetricName("test.order", {{"a", "1"}, {"b", "2"}})),
            2);
  // Exporter output is byte-identical run to run given the same recordings.
  EXPECT_EQ(MetricsToJson(registry.Snapshot()), MetricsToJson(registry.Snapshot()));
}

TEST_F(MetricsExportTest, CsvWriterLocksHeaderOnFirstAppend) {
  const std::string path = ::testing::TempDir() + "/crius_metrics_export_test.csv";
  std::remove(path.c_str());
  MetricsCsvWriter writer(path);

  MetricsSnapshot first;
  first.counters.push_back({"c.one", {}, 1.0});
  first.histograms.push_back(
      {"h.lat", {{"phase", "x"}}, HistogramSnapshot{1, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0}});
  ASSERT_TRUE(writer.Append(10.0, first));
  // Columns: scalar canonical name + histogram-derived p50/p95/count.
  const std::vector<std::string> expected_columns = {
      "c.one", R"(h.lat{phase="x"}.count)", R"(h.lat{phase="x"}.p50)",
      R"(h.lat{phase="x"}.p95)"};
  EXPECT_EQ(writer.columns(), expected_columns);

  // A metric born after the header is dropped; a vanished one reads 0.
  MetricsSnapshot second;
  second.counters.push_back({"c.one", {}, 2.0});
  second.counters.push_back({"c.late", {}, 99.0});
  ASSERT_TRUE(writer.Append(20.0, second));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  // Canonical names containing commas (the label block) are CSV-quoted.
  EXPECT_EQ(lines[0],
            "time,c.one,\"h.lat{phase=\"\"x\"\"}.count\",\"h.lat{phase=\"\"x\"\"}.p50\","
            "\"h.lat{phase=\"\"x\"\"}.p95\"");
  EXPECT_EQ(lines[1], "10,1,1,5,5");
  EXPECT_EQ(lines[2], "20,2,0,0,0");  // c.late dropped, histogram vanished -> 0
  std::remove(path.c_str());
}

TEST_F(MetricsExportTest, CsvWriterReportsUnopenablePath) {
  const std::string path =
      ::testing::TempDir() + "/crius_metrics_export_test_missing_dir/metrics.csv";
  MetricsCsvWriter writer(path);
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"c.one", {}, 1.0});
  EXPECT_FALSE(writer.Append(10.0, snapshot));
  // A failed open locks no header: the column set is still open.
  EXPECT_TRUE(writer.columns().empty());
  EXPECT_FALSE(writer.Append(20.0, snapshot));
}

}  // namespace
}  // namespace crius
