#include "bench/benchdiff.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/json.h"
#include "src/util/table.h"

namespace crius {

namespace {

constexpr int kBenchSchemaVersion = 1;

const char* StatusName(BenchDiffEntry::Status status) {
  switch (status) {
    case BenchDiffEntry::Status::kOk:
      return "ok";
    case BenchDiffEntry::Status::kImproved:
      return "improved";
    case BenchDiffEntry::Status::kRegressed:
      return "REGRESSED";
    case BenchDiffEntry::Status::kMissingBaseline:
      return "new";
    case BenchDiffEntry::Status::kMissingFresh:
      return "MISSING";
    case BenchDiffEntry::Status::kNotComparable:
      return "n/a";
  }
  return "?";
}

}  // namespace

void BenchReport::AddMetric(const std::string& name, double value, const std::string& unit,
                            const std::string& better, double threshold) {
  BenchMetricValue metric;
  metric.value = value;
  metric.unit = unit;
  metric.better = better;
  metric.threshold = threshold;
  metrics[name] = std::move(metric);
}

std::string BenchReport::ToJson() const {
  Json root = Json::Object();
  root.Set("bench", Json::Str(bench));
  root.Set("schema", Json::Number(kBenchSchemaVersion));
  Json meta_obj = Json::Object();
  for (const auto& [key, value] : meta) {
    meta_obj.Set(key, Json::Str(value));
  }
  root.Set("meta", std::move(meta_obj));
  Json metrics_obj = Json::Object();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(metric.value));
    entry.Set("unit", Json::Str(metric.unit));
    entry.Set("better", Json::Str(metric.better));
    if (metric.threshold >= 0.0) {
      entry.Set("threshold", Json::Number(metric.threshold));
    }
    metrics_obj.Set(name, std::move(entry));
  }
  root.Set("metrics", std::move(metrics_obj));
  return root.Serialize(2);
}

bool BenchReport::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    out << ToJson() << "\n";
    if (!out) {
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool BenchReport::Parse(const std::string& text, BenchReport* out, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  Json root;
  if (!Json::Parse(text, &root, error)) {
    return false;
  }
  if (!root.is_object()) {
    *error = "bench report must be a JSON object";
    return false;
  }
  const double schema = root.NumberOr("schema", 0.0);
  if (schema != kBenchSchemaVersion) {
    *error = "unsupported bench report schema " + FormatJsonNumber(schema);
    return false;
  }
  out->bench = root.StringOr("bench", "");
  out->meta.clear();
  if (const Json* meta = root.Find("meta"); meta != nullptr && meta->is_object()) {
    for (const auto& [key, value] : meta->fields()) {
      if (value.is_string()) {
        out->meta[key] = value.str();
      }
    }
  }
  out->metrics.clear();
  const Json* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    *error = "bench report missing 'metrics' object";
    return false;
  }
  for (const auto& [name, entry] : metrics->fields()) {
    if (!entry.is_object()) {
      *error = "metric '" + name + "' must be an object";
      return false;
    }
    BenchMetricValue metric;
    metric.value = entry.NumberOr("value", 0.0);
    metric.unit = entry.StringOr("unit", "");
    metric.better = entry.StringOr("better", "none");
    if (metric.better != "lower" && metric.better != "higher" && metric.better != "none") {
      *error = "metric '" + name + "' has bad better '" + metric.better + "'";
      return false;
    }
    metric.threshold = entry.NumberOr("threshold", -1.0);
    out->metrics[name] = std::move(metric);
  }
  return true;
}

bool BenchReport::ReadFile(const std::string& path, BenchReport* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), out, error);
}

BenchDiffResult CompareBenchReports(const BenchReport& baseline, const BenchReport& fresh,
                                    double default_threshold) {
  BenchDiffResult result;
  for (const auto& [name, base_metric] : baseline.metrics) {
    BenchDiffEntry entry;
    entry.name = name;
    entry.baseline = base_metric.value;
    entry.better = base_metric.better;
    entry.threshold =
        base_metric.threshold >= 0.0 ? base_metric.threshold : default_threshold;
    const auto it = fresh.metrics.find(name);
    if (it == fresh.metrics.end()) {
      entry.status = BenchDiffEntry::Status::kMissingFresh;
      result.regressed = true;
      result.entries.push_back(std::move(entry));
      continue;
    }
    entry.fresh = it->second.value;
    if (base_metric.better == "none" || base_metric.value <= 0.0) {
      entry.status = BenchDiffEntry::Status::kNotComparable;
      result.entries.push_back(std::move(entry));
      continue;
    }
    entry.ratio = entry.fresh / entry.baseline;
    const bool lower_is_better = base_metric.better == "lower";
    const double bad_bound = lower_is_better ? 1.0 + entry.threshold : 1.0 - entry.threshold;
    const double good_bound = lower_is_better ? 1.0 - entry.threshold : 1.0 + entry.threshold;
    if (lower_is_better ? entry.ratio > bad_bound : entry.ratio < bad_bound) {
      entry.status = BenchDiffEntry::Status::kRegressed;
      result.regressed = true;
    } else if (lower_is_better ? entry.ratio < good_bound : entry.ratio > good_bound) {
      entry.status = BenchDiffEntry::Status::kImproved;
    } else {
      entry.status = BenchDiffEntry::Status::kOk;
    }
    result.entries.push_back(std::move(entry));
  }
  for (const auto& [name, fresh_metric] : fresh.metrics) {
    if (baseline.metrics.count(name) != 0) {
      continue;
    }
    BenchDiffEntry entry;
    entry.name = name;
    entry.fresh = fresh_metric.value;
    entry.better = fresh_metric.better;
    entry.status = BenchDiffEntry::Status::kMissingBaseline;
    result.entries.push_back(std::move(entry));
  }
  return result;
}

BenchReport UpdateBaseline(const BenchReport& baseline, const BenchReport& fresh) {
  BenchReport updated = fresh;
  for (auto& [name, metric] : updated.metrics) {
    const auto it = baseline.metrics.find(name);
    if (it != baseline.metrics.end() && it->second.threshold >= 0.0) {
      metric.threshold = it->second.threshold;
    }
  }
  return updated;
}

std::string BenchDiffResult::Render() const {
  Table table("Bench diff");
  table.SetHeader({"metric", "baseline", "fresh", "ratio", "tolerance", "status"});
  for (const BenchDiffEntry& entry : entries) {
    const bool comparable = entry.status == BenchDiffEntry::Status::kOk ||
                            entry.status == BenchDiffEntry::Status::kImproved ||
                            entry.status == BenchDiffEntry::Status::kRegressed;
    table.AddRow({entry.name, Table::Fmt(entry.baseline, 4), Table::Fmt(entry.fresh, 4),
                  comparable ? Table::FmtFactor(entry.ratio) : "-",
                  comparable ? Table::Fmt(entry.threshold, 2) : "-",
                  StatusName(entry.status)});
  }
  std::string out = table.Render();
  out += regressed ? "VERDICT: REGRESSED\n" : "VERDICT: ok\n";
  return out;
}

}  // namespace crius
