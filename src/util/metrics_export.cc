#include "src/util/metrics_export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/csv.h"
#include "src/util/json.h"

namespace crius {

namespace {

constexpr int kMetricsSchemaVersion = 1;

Json LabelsToJson(const MetricLabels& labels) {
  Json obj = Json::Object();
  for (const auto& [key, value] : labels) {
    obj.Set(key, Json::Str(value));
  }
  return obj;
}

Json ScalarToJson(const MetricSample& sample) {
  Json obj = Json::Object();
  obj.Set("name", Json::Str(sample.name));
  if (!sample.labels.empty()) {
    obj.Set("labels", LabelsToJson(sample.labels));
  }
  obj.Set("value", Json::Number(sample.value));
  return obj;
}

Json HistToJson(const HistogramSample& sample) {
  Json obj = Json::Object();
  obj.Set("name", Json::Str(sample.name));
  if (!sample.labels.empty()) {
    obj.Set("labels", LabelsToJson(sample.labels));
  }
  const HistogramSnapshot& s = sample.value;
  obj.Set("count", Json::Number(static_cast<double>(s.count)));
  obj.Set("sum", Json::Number(s.sum));
  obj.Set("mean", Json::Number(s.mean));
  obj.Set("min", Json::Number(s.min));
  obj.Set("max", Json::Number(s.max));
  obj.Set("p50", Json::Number(s.p50));
  obj.Set("p95", Json::Number(s.p95));
  obj.Set("p99", Json::Number(s.p99));
  return obj;
}

bool ParseLabels(const Json& entry, MetricLabels* labels, std::string* error) {
  labels->clear();
  const Json* obj = entry.Find("labels");
  if (obj == nullptr) {
    return true;
  }
  if (!obj->is_object()) {
    *error = "labels must be an object";
    return false;
  }
  for (const auto& [key, value] : obj->fields()) {
    if (!value.is_string()) {
      *error = "label value for '" + key + "' must be a string";
      return false;
    }
    (*labels)[key] = value.str();
  }
  return true;
}

bool ParseScalars(const Json& root, const std::string& field,
                  std::vector<MetricSample>* out, std::string* error) {
  out->clear();
  const Json* arr = root.Find(field);
  if (arr == nullptr) {
    return true;  // absent section == empty
  }
  if (!arr->is_array()) {
    *error = "'" + field + "' must be an array";
    return false;
  }
  for (const Json& entry : arr->items()) {
    MetricSample sample;
    sample.name = entry.StringOr("name", "");
    if (sample.name.empty()) {
      *error = "metric entry in '" + field + "' missing name";
      return false;
    }
    if (!ParseLabels(entry, &sample.labels, error)) {
      return false;
    }
    sample.value = entry.NumberOr("value", 0.0);
    out->push_back(std::move(sample));
  }
  return true;
}

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// ("serve.round_ms") map '.' and '-' (and anything else outside the charset)
// to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':' ||
                    (i > 0 && c >= '0' && c <= '9');
    if (!ok) {
      out[i] = '_';
    }
  }
  return out;
}

std::string PrometheusLabelValue(const std::string& value) {
  std::string out;
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusLabels(const MetricLabels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += PrometheusName(key) + "=\"" + PrometheusLabelValue(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) {
      out += ",";
    }
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot, int indent) {
  Json root = Json::Object();
  root.Set("schema", Json::Number(kMetricsSchemaVersion));
  Json counters = Json::Array();
  for (const MetricSample& sample : snapshot.counters) {
    counters.Push(ScalarToJson(sample));
  }
  root.Set("counters", std::move(counters));
  Json gauges = Json::Array();
  for (const MetricSample& sample : snapshot.gauges) {
    gauges.Push(ScalarToJson(sample));
  }
  root.Set("gauges", std::move(gauges));
  Json histograms = Json::Array();
  for (const HistogramSample& sample : snapshot.histograms) {
    histograms.Push(HistToJson(sample));
  }
  root.Set("histograms", std::move(histograms));
  return root.Serialize(indent);
}

bool ParseMetricsJson(const std::string& text, MetricsSnapshot* out, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  Json root;
  if (!Json::Parse(text, &root, error)) {
    return false;
  }
  if (!root.is_object()) {
    *error = "metrics document must be a JSON object";
    return false;
  }
  const double schema = root.NumberOr("schema", 0.0);
  if (schema != kMetricsSchemaVersion) {
    *error = "unsupported metrics schema " + FormatJsonNumber(schema);
    return false;
  }
  if (!ParseScalars(root, "counters", &out->counters, error) ||
      !ParseScalars(root, "gauges", &out->gauges, error)) {
    return false;
  }
  out->histograms.clear();
  const Json* arr = root.Find("histograms");
  if (arr == nullptr) {
    return true;
  }
  if (!arr->is_array()) {
    *error = "'histograms' must be an array";
    return false;
  }
  for (const Json& entry : arr->items()) {
    HistogramSample sample;
    sample.name = entry.StringOr("name", "");
    if (sample.name.empty()) {
      *error = "histogram entry missing name";
      return false;
    }
    if (!ParseLabels(entry, &sample.labels, error)) {
      return false;
    }
    HistogramSnapshot& s = sample.value;
    const double count = entry.NumberOr("count", 0.0);
    if (!(count >= 0.0 && count <= 0x1p53) || count != std::trunc(count)) {
      *error = "histogram '" + sample.name + "' count must be a whole number";
      return false;
    }
    s.count = static_cast<size_t>(count);
    s.sum = entry.NumberOr("sum", 0.0);
    s.mean = entry.NumberOr("mean", 0.0);
    s.min = entry.NumberOr("min", 0.0);
    s.max = entry.NumberOr("max", 0.0);
    s.p50 = entry.NumberOr("p50", 0.0);
    s.p95 = entry.NumberOr("p95", 0.0);
    s.p99 = entry.NumberOr("p99", 0.0);
    out->histograms.push_back(std::move(sample));
  }
  return true;
}

std::string MetricsToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_typed;  // emit one TYPE line per base name
  auto emit_type = [&out, &last_typed](const std::string& name, const char* type) {
    if (name != last_typed) {
      out += "# TYPE " + name + " " + type + "\n";
      last_typed = name;
    }
  };
  for (const MetricSample& sample : snapshot.counters) {
    const std::string name = PrometheusName(sample.name);
    emit_type(name, "counter");
    out += name + PrometheusLabels(sample.labels) + " " + FormatJsonNumber(sample.value) + "\n";
  }
  for (const MetricSample& sample : snapshot.gauges) {
    const std::string name = PrometheusName(sample.name);
    emit_type(name, "gauge");
    out += name + PrometheusLabels(sample.labels) + " " + FormatJsonNumber(sample.value) + "\n";
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    const std::string name = PrometheusName(sample.name);
    emit_type(name, "summary");
    const HistogramSnapshot& s = sample.value;
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, value] : quantiles) {
      out += name + PrometheusLabels(sample.labels, "quantile", q) + " " +
             FormatJsonNumber(value) + "\n";
    }
    out += name + "_sum" + PrometheusLabels(sample.labels) + " " + FormatJsonNumber(s.sum) + "\n";
    out += name + "_count" + PrometheusLabels(sample.labels) + " " +
           FormatJsonNumber(static_cast<double>(s.count)) + "\n";
  }
  return out;
}

bool WriteMetricsJsonFile(const std::string& path, const MetricsSnapshot& snapshot) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    out << MetricsToJson(snapshot, 2) << "\n";
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

namespace {

// Flattens a snapshot into (column name -> value): scalars contribute their
// canonical name; histograms contribute .p50/.p95/.count derived columns.
std::map<std::string, double> FlattenSnapshot(const MetricsSnapshot& snapshot) {
  std::map<std::string, double> flat;
  for (const MetricSample& sample : snapshot.counters) {
    flat[CanonicalMetricName(sample.name, sample.labels)] = sample.value;
  }
  for (const MetricSample& sample : snapshot.gauges) {
    flat[CanonicalMetricName(sample.name, sample.labels)] = sample.value;
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    const std::string base = CanonicalMetricName(sample.name, sample.labels);
    flat[base + ".p50"] = sample.value.p50;
    flat[base + ".p95"] = sample.value.p95;
    flat[base + ".count"] = static_cast<double>(sample.value.count);
  }
  return flat;
}

}  // namespace

bool MetricsCsvWriter::Append(double timestamp, const MetricsSnapshot& snapshot) {
  const std::map<std::string, double> flat = FlattenSnapshot(snapshot);
  std::ofstream out(path_, std::ios::app);
  if (!out) {
    return false;
  }
  if (!wrote_header_) {
    columns_.clear();
    columns_.reserve(flat.size());
    std::string header = "time";
    for (const auto& [name, value] : flat) {
      columns_.push_back(name);
      // Canonical names can hold commas inside the label block.
      header += ',';
      header += csv::EscapeField(name);
    }
    out << header << "\n";
    if (!out) {
      return false;
    }
    wrote_header_ = true;
  }
  std::string row = FormatJsonNumber(timestamp);
  for (const std::string& column : columns_) {
    const auto it = flat.find(column);
    row += ",";
    row += it == flat.end() ? "0" : FormatJsonNumber(it->second);
  }
  out << row << "\n";
  return static_cast<bool>(out);
}

}  // namespace crius
