// BenchReport: the persistent BENCH_*.json perf-trajectory format, plus the
// baseline-vs-fresh comparison behind tools/crius_benchdiff.
//
// Every bench that participates in the trajectory writes one report:
//
//   {"bench":"ext_rounds","schema":1,
//    "meta":{"cluster":"testbed","smoke":"true"},
//    "metrics":{"incremental.median_steady_ms":
//               {"value":4.2,"unit":"ms","better":"lower","threshold":0.5}}}
//
// `better` says which direction is good ("lower" for latencies, "higher" for
// throughputs, "none" for informational values that never gate). `threshold`
// is the per-metric relative regression tolerance; the checked-in baseline's
// value wins over the crius_benchdiff --threshold default, so noisy
// wall-time metrics can carry loose hand-tuned bounds while dimensionless
// ratios stay tight. Serialization is deterministic (sorted metric names,
// shortest round-trip numbers) so baselines diff cleanly in review.
//
// CompareBenchReports is pure and unit-tested (tests/benchdiff_test.cc); the
// CLI in tools/crius_benchdiff.cc is a thin wrapper that renders the result
// table and turns `regressed` into exit code 1.

#ifndef BENCH_BENCHDIFF_H_
#define BENCH_BENCHDIFF_H_

#include <map>
#include <string>
#include <vector>

namespace crius {

struct BenchMetricValue {
  double value = 0.0;
  std::string unit;            // "ms", "1/s", "" (dimensionless)
  std::string better = "none"; // "lower" | "higher" | "none"
  double threshold = -1.0;     // relative tolerance; < 0 = benchdiff default
};

struct BenchReport {
  std::string bench;
  std::map<std::string, std::string> meta;             // free-form context
  std::map<std::string, BenchMetricValue> metrics;     // sorted by name

  void AddMetric(const std::string& name, double value, const std::string& unit,
                 const std::string& better, double threshold = -1.0);

  // Pretty-printed (indent 2) deterministic JSON document.
  std::string ToJson() const;
  // Writes ToJson() to `path` atomically (temp file + rename).
  bool WriteFile(const std::string& path) const;

  static bool Parse(const std::string& text, BenchReport* out, std::string* error);
  static bool ReadFile(const std::string& path, BenchReport* out, std::string* error);
};

struct BenchDiffEntry {
  enum class Status {
    kOk,               // within tolerance
    kImproved,         // moved past tolerance in the good direction
    kRegressed,        // moved past tolerance in the bad direction
    kMissingBaseline,  // metric new in the fresh run (informational)
    kMissingFresh,     // metric vanished from the fresh run (fails the gate)
    kNotComparable,    // baseline value <= 0 or better == "none"
  };

  std::string name;
  double baseline = 0.0;
  double fresh = 0.0;
  double ratio = 0.0;      // fresh / baseline (0 when not computable)
  double threshold = 0.0;  // tolerance the verdict used
  std::string better;
  Status status = Status::kOk;
};

struct BenchDiffResult {
  std::vector<BenchDiffEntry> entries;  // baseline order, then fresh-only extras
  bool regressed = false;               // any kRegressed or kMissingFresh

  // Human-readable comparison table (one line per entry plus a verdict).
  std::string Render() const;
};

// Compares a fresh run against the checked-in baseline. `default_threshold`
// applies to metrics whose baseline entry carries no threshold of its own.
BenchDiffResult CompareBenchReports(const BenchReport& baseline, const BenchReport& fresh,
                                    double default_threshold);

// The refreshed baseline a `crius_benchdiff --update-baselines` run writes:
// the fresh report's bench name, meta, metric set, and values, but with each
// surviving metric keeping the old baseline's hand-tuned threshold (a value
// refresh must not silently discard tolerance tuning). Metrics absent from
// the fresh run are dropped; fresh-only metrics enter with their own
// threshold. Pure, so tests pin the merge rules directly.
BenchReport UpdateBaseline(const BenchReport& baseline, const BenchReport& fresh);

}  // namespace crius

#endif  // BENCH_BENCHDIFF_H_
