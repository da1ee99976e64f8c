// crius_benchdiff: compare a fresh BENCH_*.json run against a checked-in
// baseline and fail on regressions beyond tolerance.
//
//   crius_benchdiff --baseline bench/baselines/BENCH_rounds.json
//                   --fresh build/BENCH_rounds.json [--threshold 0.5]
//
// Per-metric `threshold` values stored in the baseline override --threshold,
// so noisy wall-time metrics can carry loose hand-tuned bounds while
// dimensionless ratios stay tight. A metric present in the baseline but
// missing from the fresh run fails the gate (a silently vanished measurement
// is indistinguishable from a regression); fresh-only metrics are reported
// as "new" and pass.
//
// --update-baselines rewrites --baseline from --fresh instead of comparing:
// the fresh values and metric set win, but every surviving metric keeps the
// baseline's hand-tuned threshold (see UpdateBaseline). A missing or
// unreadable baseline is fine in this mode — the fresh report is adopted
// wholesale. Use after an intentional perf change:
//
//   crius_benchdiff --update-baselines
//                   --baseline bench/baselines/BENCH_rounds.json
//                   --fresh build/BENCH_rounds.json
//
// Exit codes: 0 = within tolerance, 1 = regression (or vanished metric),
// 2 = unreadable/malformed input.

#include <cstdio>

#include "bench/benchdiff.h"
#include "src/util/flags.h"

namespace crius {
namespace {

int Run(int argc, const char* const* argv) {
  std::string baseline_path;
  std::string fresh_path;
  double threshold = 0.5;
  bool update_baselines = false;

  FlagSet flags("crius_benchdiff", "Compare a BENCH_*.json run against a baseline");
  flags.String("baseline", &baseline_path, "checked-in baseline report");
  flags.String("fresh", &fresh_path, "freshly produced report to validate");
  flags.Double("threshold", &threshold,
               "default relative regression tolerance (per-metric baseline "
               "thresholds override this)");
  flags.Bool("update-baselines", &update_baselines,
             "rewrite --baseline from --fresh, keeping per-metric thresholds "
             "for metrics present in both (no comparison)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (baseline_path.empty() || fresh_path.empty()) {
    std::fprintf(stderr, "crius_benchdiff: --baseline and --fresh are required\n");
    return 2;
  }
  if (threshold < 0.0) {
    std::fprintf(stderr, "crius_benchdiff: --threshold must be >= 0\n");
    return 2;
  }

  std::string error;
  BenchReport fresh;
  if (!BenchReport::ReadFile(fresh_path, &fresh, &error)) {
    std::fprintf(stderr, "crius_benchdiff: fresh: %s\n", error.c_str());
    return 2;
  }
  if (update_baselines) {
    // A baseline that does not exist (first run of a new bench) or fails to
    // parse is simply replaced wholesale by the fresh report.
    BenchReport baseline;
    if (!BenchReport::ReadFile(baseline_path, &baseline, &error)) {
      std::fprintf(stderr, "crius_benchdiff: adopting fresh report (baseline: %s)\n",
                   error.c_str());
      baseline = BenchReport{};
    }
    const BenchReport updated = UpdateBaseline(baseline, fresh);
    if (!updated.WriteFile(baseline_path)) {
      std::fprintf(stderr, "crius_benchdiff: cannot write %s\n", baseline_path.c_str());
      return 2;
    }
    std::printf("crius_benchdiff: updated %s (%zu metrics)\n", baseline_path.c_str(),
                updated.metrics.size());
    return 0;
  }
  BenchReport baseline;
  if (!BenchReport::ReadFile(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "crius_benchdiff: baseline: %s\n", error.c_str());
    return 2;
  }
  if (!baseline.bench.empty() && !fresh.bench.empty() && baseline.bench != fresh.bench) {
    std::fprintf(stderr, "crius_benchdiff: comparing different benches ('%s' vs '%s')\n",
                 baseline.bench.c_str(), fresh.bench.c_str());
    return 2;
  }

  const BenchDiffResult result = CompareBenchReports(baseline, fresh, threshold);
  std::fputs(result.Render().c_str(), stdout);
  return result.regressed ? 1 : 0;
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  return crius::Run(argc, argv);
}
