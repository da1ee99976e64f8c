// Reader for the metrics JSON document (MetricsToJson in
// src/util/metrics_export.h), for tests that check its round trip and the
// serve daemon's `metrics` verb. No product binary reads this format back.

#ifndef TESTS_METRICS_JSON_UTIL_H_
#define TESTS_METRICS_JSON_UTIL_H_

#include <cmath>
#include <string>
#include <vector>

#include "src/util/counters.h"
#include "src/util/json.h"
#include "src/util/metrics_export.h"

namespace crius {
namespace test {

inline bool ParseLabels(const Json& entry, MetricLabels* labels, std::string* error) {
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

inline bool ParseScalars(const Json& root, const std::string& field,
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

// Inverse of MetricsToJson. Returns false with a message in *error on
// malformed input or schema mismatch.
inline bool ParseMetricsJson(const std::string& text, MetricsSnapshot* out,
                             std::string* error) {
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

}  // namespace test
}  // namespace crius

#endif  // TESTS_METRICS_JSON_UTIL_H_
