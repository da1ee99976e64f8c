// Machine-readable exporters for CounterRegistry snapshots.
//
// Three output shapes, all deterministic given the snapshot (entries arrive
// sorted by canonical metric name, numbers render via FormatJsonNumber):
//
//   * MetricsToJson -- nested JSON document, one entry per metric with its
//     labels spelled out. The serve daemon's `metrics` verb ships this over
//     the wire; the tests' reader (tests/metrics_json_util.h) parses it back
//     into an equal MetricsSnapshot.
//   * MetricsToPrometheus -- Prometheus text exposition format (counters as
//     `# TYPE x counter`, gauges as gauge, histograms as summary with
//     quantile labels plus _sum/_count). Base names are sanitized to the
//     Prometheus charset ('.' and '-' become '_').
//   * MetricsCsvWriter -- periodic wide-row CSV (one column per scalar
//     metric, histograms contribute <name>.p50/.p95/.count columns), used by
//     the serve daemon's --metrics-csv side channel. The header is fixed by
//     the first Append call; metrics born later are dropped from the file
//     (noted in a trailing comment column set) rather than re-headering.

#ifndef SRC_UTIL_METRICS_EXPORT_H_
#define SRC_UTIL_METRICS_EXPORT_H_

#include <string>
#include <vector>

#include "src/util/counters.h"

namespace crius {

// The "schema" field of a MetricsToJson document.
inline constexpr int kMetricsSchemaVersion = 1;

// Serializes the snapshot as a JSON document:
//   {"schema":1,"counters":[{"name":...,"labels":{...},"value":...}],
//    "gauges":[...],"histograms":[{"name":...,"labels":{...},
//      "count":...,"sum":...,"mean":...,"min":...,"max":...,
//      "p50":...,"p95":...,"p99":...}]}
// `indent < 0` gives compact single-line output.
std::string MetricsToJson(const MetricsSnapshot& snapshot, int indent = -1);

// Prometheus text exposition format (version 0.0.4).
std::string MetricsToPrometheus(const MetricsSnapshot& snapshot);

// Appends periodic wide-row CSV snapshots to a file. Column set is locked in
// by the first Append(); later-born metrics are ignored so every row parses
// against the single header.
class MetricsCsvWriter {
 public:
  explicit MetricsCsvWriter(std::string path) : path_(std::move(path)) {}

  // Appends one row (writing the header first on the initial call).
  // `timestamp` is caller-supplied (wall seconds or virtual time) and lands
  // in the leading `time` column. Returns false on I/O failure.
  bool Append(double timestamp, const MetricsSnapshot& snapshot);

  const std::vector<std::string>& columns() const { return columns_; }

 private:
  std::string path_;
  bool wrote_header_ = false;
  std::vector<std::string> columns_;  // canonical scalar column names, post-header
};

}  // namespace crius

#endif  // SRC_UTIL_METRICS_EXPORT_H_
