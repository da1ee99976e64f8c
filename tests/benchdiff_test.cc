// Tests for the BENCH_*.json perf-trajectory format and the
// baseline-vs-fresh comparison behind tools/crius_benchdiff
// (bench/benchdiff.h).

#include "bench/benchdiff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace crius {
namespace {

BenchReport MakeBaseline() {
  BenchReport report;
  report.bench = "ext_demo";
  report.meta["mode"] = "smoke";
  report.AddMetric("latency_ms", 10.0, "ms", "lower", 0.5);
  report.AddMetric("throughput", 100.0, "1/s", "higher", 0.2);
  report.AddMetric("rounds", 48.0, "", "none");
  return report;
}

const BenchDiffEntry* FindEntry(const BenchDiffResult& result, const std::string& name) {
  for (const BenchDiffEntry& entry : result.entries) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

TEST(BenchReportTest, JsonRoundTrip) {
  const BenchReport original = MakeBaseline();
  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(BenchReport::Parse(original.ToJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.bench, "ext_demo");
  EXPECT_EQ(parsed.meta.at("mode"), "smoke");
  ASSERT_EQ(parsed.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.metrics.at("latency_ms").value, 10.0);
  EXPECT_EQ(parsed.metrics.at("latency_ms").unit, "ms");
  EXPECT_EQ(parsed.metrics.at("latency_ms").better, "lower");
  EXPECT_DOUBLE_EQ(parsed.metrics.at("latency_ms").threshold, 0.5);
  // Unset threshold is omitted from JSON and reads back as the -1 sentinel.
  EXPECT_DOUBLE_EQ(parsed.metrics.at("rounds").threshold, -1.0);
  // Serialization is deterministic: a second round-trip is byte-identical.
  EXPECT_EQ(parsed.ToJson(), original.ToJson());
}

TEST(BenchReportTest, ParseRejectsMalformedReports) {
  BenchReport out;
  std::string error;
  EXPECT_FALSE(BenchReport::Parse("nope", &out, &error));
  EXPECT_FALSE(BenchReport::Parse(R"({"bench":"x","schema":2,"metrics":{}})", &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(BenchReport::Parse(R"({"bench":"x","schema":1e300,"metrics":{}})", &out, &error));
  EXPECT_EQ(error, "unsupported bench report schema 1e+300");
  EXPECT_FALSE(BenchReport::Parse(R"({"bench":"x","schema":1})", &out, &error));
  EXPECT_NE(error.find("metrics"), std::string::npos);
  // Bad `better` direction is rejected, not defaulted.
  EXPECT_FALSE(BenchReport::Parse(
      R"({"bench":"x","schema":1,"metrics":{"m":{"value":1,"better":"sideways"}}})", &out,
      &error));
  EXPECT_NE(error.find("sideways"), std::string::npos);
}

TEST(BenchReportTest, WriteAndReadFile) {
  const std::string path = ::testing::TempDir() + "/crius_benchdiff_test.json";
  std::remove(path.c_str());
  const BenchReport original = MakeBaseline();
  ASSERT_TRUE(original.WriteFile(path));
  BenchReport loaded;
  std::string error;
  ASSERT_TRUE(BenchReport::ReadFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.ToJson(), original.ToJson());
  EXPECT_FALSE(BenchReport::ReadFile(path + ".does_not_exist", &loaded, &error));
  std::remove(path.c_str());
}

TEST(BenchDiffTest, IdenticalReportsPass) {
  const BenchReport baseline = MakeBaseline();
  const BenchDiffResult result = CompareBenchReports(baseline, baseline, 0.5);
  EXPECT_FALSE(result.regressed);
  const BenchDiffEntry* latency = FindEntry(result, "latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->status, BenchDiffEntry::Status::kOk);
  EXPECT_DOUBLE_EQ(latency->ratio, 1.0);
  // better == "none" never gates.
  const BenchDiffEntry* rounds = FindEntry(result, "rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->status, BenchDiffEntry::Status::kNotComparable);
}

TEST(BenchDiffTest, RegressionsInEitherDirection) {
  const BenchReport baseline = MakeBaseline();
  BenchReport fresh = baseline;
  fresh.metrics["latency_ms"].value = 20.0;   // 2x slower, threshold 0.5 -> regressed
  fresh.metrics["throughput"].value = 70.0;   // -30%, threshold 0.2 -> regressed
  const BenchDiffResult result = CompareBenchReports(baseline, fresh, 0.5);
  EXPECT_TRUE(result.regressed);
  EXPECT_EQ(FindEntry(result, "latency_ms")->status, BenchDiffEntry::Status::kRegressed);
  EXPECT_EQ(FindEntry(result, "throughput")->status, BenchDiffEntry::Status::kRegressed);
  EXPECT_NE(result.Render().find("VERDICT: REGRESSED"), std::string::npos);
}

TEST(BenchDiffTest, ImprovementsPassTheGate) {
  const BenchReport baseline = MakeBaseline();
  BenchReport fresh = baseline;
  fresh.metrics["latency_ms"].value = 4.0;     // well under the 0.5 tolerance
  fresh.metrics["throughput"].value = 150.0;   // +50% over the 0.2 tolerance
  const BenchDiffResult result = CompareBenchReports(baseline, fresh, 0.5);
  EXPECT_FALSE(result.regressed);
  EXPECT_EQ(FindEntry(result, "latency_ms")->status, BenchDiffEntry::Status::kImproved);
  EXPECT_EQ(FindEntry(result, "throughput")->status, BenchDiffEntry::Status::kImproved);
}

TEST(BenchDiffTest, BaselineThresholdOverridesDefault) {
  BenchReport baseline;
  baseline.bench = "b";
  baseline.AddMetric("loose_ms", 10.0, "ms", "lower", 9.0);  // 10x tolerated
  baseline.AddMetric("tight_ms", 10.0, "ms", "lower");       // no threshold -> default
  BenchReport fresh = baseline;
  fresh.metrics["loose_ms"].value = 50.0;  // 5x: inside the loose per-metric bound
  fresh.metrics["tight_ms"].value = 50.0;  // 5x: outside the 0.5 default
  const BenchDiffResult result = CompareBenchReports(baseline, fresh, 0.5);
  EXPECT_TRUE(result.regressed);
  const BenchDiffEntry* loose = FindEntry(result, "loose_ms");
  ASSERT_NE(loose, nullptr);
  EXPECT_EQ(loose->status, BenchDiffEntry::Status::kOk);
  EXPECT_DOUBLE_EQ(loose->threshold, 9.0);
  const BenchDiffEntry* tight = FindEntry(result, "tight_ms");
  ASSERT_NE(tight, nullptr);
  EXPECT_EQ(tight->status, BenchDiffEntry::Status::kRegressed);
  EXPECT_DOUBLE_EQ(tight->threshold, 0.5);
}

TEST(BenchDiffTest, VanishedMetricFailsNewMetricPasses) {
  const BenchReport baseline = MakeBaseline();
  BenchReport fresh = baseline;
  fresh.metrics.erase("latency_ms");                       // vanished: fails
  fresh.AddMetric("extra_ms", 1.0, "ms", "lower", 0.5);    // new: informational
  const BenchDiffResult result = CompareBenchReports(baseline, fresh, 0.5);
  EXPECT_TRUE(result.regressed);
  EXPECT_EQ(FindEntry(result, "latency_ms")->status, BenchDiffEntry::Status::kMissingFresh);
  EXPECT_EQ(FindEntry(result, "extra_ms")->status, BenchDiffEntry::Status::kMissingBaseline);

  // A new metric alone must not fail the gate.
  BenchReport fresh_only_new = baseline;
  fresh_only_new.AddMetric("extra_ms", 1.0, "ms", "lower", 0.5);
  EXPECT_FALSE(CompareBenchReports(baseline, fresh_only_new, 0.5).regressed);
}

TEST(BenchDiffTest, NonPositiveBaselineIsNotComparable) {
  BenchReport baseline;
  baseline.bench = "b";
  baseline.AddMetric("zero", 0.0, "", "lower", 0.5);
  BenchReport fresh = baseline;
  fresh.metrics["zero"].value = 100.0;
  const BenchDiffResult result = CompareBenchReports(baseline, fresh, 0.5);
  EXPECT_FALSE(result.regressed);
  EXPECT_EQ(FindEntry(result, "zero")->status, BenchDiffEntry::Status::kNotComparable);
}

TEST(UpdateBaselineTest, FreshValuesWinButSurvivorsKeepTunedThresholds) {
  const BenchReport baseline = MakeBaseline();
  BenchReport fresh = baseline;
  fresh.meta["mode"] = "full";
  fresh.metrics["latency_ms"].value = 7.5;
  fresh.metrics["latency_ms"].threshold = 0.1;  // discarded: baseline's 0.5 wins
  fresh.metrics["throughput"].value = 140.0;
  const BenchReport updated = UpdateBaseline(baseline, fresh);
  EXPECT_EQ(updated.bench, "ext_demo");
  EXPECT_EQ(updated.meta.at("mode"), "full");
  EXPECT_DOUBLE_EQ(updated.metrics.at("latency_ms").value, 7.5);
  EXPECT_DOUBLE_EQ(updated.metrics.at("latency_ms").threshold, 0.5);
  EXPECT_DOUBLE_EQ(updated.metrics.at("throughput").value, 140.0);
  EXPECT_DOUBLE_EQ(updated.metrics.at("throughput").threshold, 0.2);
}

TEST(UpdateBaselineTest, MetricSetFollowsTheFreshRun) {
  const BenchReport baseline = MakeBaseline();
  BenchReport fresh = baseline;
  fresh.metrics.erase("rounds");                            // vanished: dropped
  fresh.AddMetric("p99_ms", 25.0, "ms", "lower", 1.0);      // new: enters as-is
  const BenchReport updated = UpdateBaseline(baseline, fresh);
  EXPECT_EQ(updated.metrics.count("rounds"), 0u);
  ASSERT_EQ(updated.metrics.count("p99_ms"), 1u);
  EXPECT_DOUBLE_EQ(updated.metrics.at("p99_ms").threshold, 1.0);
  // The refreshed baseline passes the gate against the run that produced it.
  EXPECT_FALSE(CompareBenchReports(updated, fresh, 0.5).regressed);
}

TEST(UpdateBaselineTest, UnsetBaselineThresholdDoesNotClobberFresh) {
  BenchReport baseline;
  baseline.bench = "b";
  baseline.AddMetric("m", 10.0, "ms", "lower");  // threshold -1 sentinel
  BenchReport fresh = baseline;
  fresh.metrics["m"].value = 12.0;
  fresh.metrics["m"].threshold = 0.3;
  const BenchReport updated = UpdateBaseline(baseline, fresh);
  // The baseline never carried a tuned bound, so fresh's own threshold stands.
  EXPECT_DOUBLE_EQ(updated.metrics.at("m").threshold, 0.3);

  // An empty baseline (first run of a new bench) adopts fresh wholesale.
  const BenchReport adopted = UpdateBaseline(BenchReport{}, fresh);
  EXPECT_EQ(adopted.ToJson(), fresh.ToJson());
}

TEST(BenchDiffTest, RenderMentionsEveryMetricAndVerdict) {
  const BenchReport baseline = MakeBaseline();
  const BenchDiffResult result = CompareBenchReports(baseline, baseline, 0.5);
  const std::string rendered = result.Render();
  EXPECT_NE(rendered.find("latency_ms"), std::string::npos);
  EXPECT_NE(rendered.find("throughput"), std::string::npos);
  EXPECT_NE(rendered.find("rounds"), std::string::npos);
  EXPECT_NE(rendered.find("VERDICT: ok"), std::string::npos);
}

}  // namespace
}  // namespace crius
