// Shared helpers for the figure-reproduction benchmark binaries.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/util/benchdiff.h"
#include "src/util/flags.h"
#include "src/util/table.h"
#include "src/util/threadpool.h"

namespace crius {

// Parses the one flag the bench binaries share -- "--threads N" (or
// "--threads=N") -- and sizes the global pool accordingly. Routed through
// FlagSet::ParseKnown so a malformed value warns and keeps the default
// instead of silently turning garbage into 0, and so flags owned by the
// bench binary itself pass through untouched. The pool runs ext_robustness's
// per-seed sweep (each seed owns its oracle) and ext_serve's connection
// workers; every simulation run is single-threaded, so results are
// bit-identical across thread counts.
inline void ConfigureBenchThreads(int argc, char** argv) {
  int64_t threads = 1;
  FlagSet flags("bench", "shared benchmark flags");
  flags.Int("threads", &threads, "worker threads for per-seed sweeps and serve connections");
  flags.ParseKnown(argc, argv);
  if (threads < 1 || threads > ThreadPool::kMaxThreads) {
    std::fprintf(stderr, "warning: ignoring --threads value %lld (expected 1..%d); using 1\n",
                 static_cast<long long>(threads), ThreadPool::kMaxThreads);
    threads = 1;
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
}

// The five schedulers of §8.1, in the paper's presentation order.
inline std::vector<std::unique_ptr<Scheduler>> MakeAllSchedulers(PerformanceOracle* oracle) {
  std::vector<std::unique_ptr<Scheduler>> out;
  out.push_back(std::make_unique<FcfsScheduler>(oracle));
  out.push_back(std::make_unique<GandivaScheduler>(oracle));
  out.push_back(std::make_unique<GavelScheduler>(oracle));
  out.push_back(std::make_unique<ElasticFlowScheduler>(oracle, ElasticFlowConfig{}));
  out.push_back(std::make_unique<CriusScheduler>(oracle, CriusConfig{}));
  return out;
}

// Wraps a scheduler and accumulates wall-clock time of Schedule() calls
// (the §8.7 scheduling-overhead measurement).
class TimedScheduler : public Scheduler {
 public:
  explicit TimedScheduler(Scheduler* inner) : Scheduler(nullptr), inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    const auto start = std::chrono::steady_clock::now();
    ScheduleDecision d = inner_->Schedule(round);
    const auto end = std::chrono::steady_clock::now();
    total_seconds_ += std::chrono::duration<double>(end - start).count();
    ++calls_;
    return d;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return inner_->ProfilingDelay(job, cluster);
  }

  double total_seconds() const { return total_seconds_; }
  int calls() const { return calls_; }

 private:
  Scheduler* inner_;
  double total_seconds_ = 0.0;
  int calls_ = 0;
};

// The bench binaries deliberately scan argv by hand instead of declaring a
// FlagSet: every binary must ignore the driver-level flags it does not own
// (--threads for the pool, --json for the report) and FlagSet::Parse rejects
// unknown flags. These helpers keep that scanning in one place.

// True when `flag` (e.g. "--smoke") appears verbatim in argv.
inline bool BenchFlagPresent(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Value of "--name VALUE" / "--name=VALUE", or "" when absent.
inline std::string BenchFlagValue(int argc, char** argv, const char* flag) {
  const size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return "";
}

// Integer value of "--name N" / "--name=N", or `fallback` when the flag is
// absent or its value does not parse as an integer.
inline int64_t BenchFlagInt(int argc, char** argv, const char* flag, int64_t fallback) {
  const std::string value = BenchFlagValue(argc, argv, flag);
  if (value.empty()) {
    return fallback;
  }
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "warning: ignoring non-integer value '%s' for %s\n", value.c_str(),
                 flag);
    return fallback;
  }
  return static_cast<int64_t>(parsed);
}

// Double value of "--name X" / "--name=X", or `fallback` when the flag is
// absent or its value does not parse as a number. Same warn-and-keep-default
// policy as BenchFlagInt: garbage must never silently become 0.0.
inline double BenchFlagDouble(int argc, char** argv, const char* flag, double fallback) {
  const std::string value = BenchFlagValue(argc, argv, flag);
  if (value.empty()) {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "warning: ignoring non-numeric value '%s' for %s\n", value.c_str(),
                 flag);
    return fallback;
  }
  return parsed;
}

// Path of the shared "--json PATH" bench-report flag; empty = no report.
inline std::string BenchReportPathFromArgs(int argc, char** argv) {
  return BenchFlagValue(argc, argv, "--json");
}

// Writes `report` to `path` (no-op when the flag was absent). The emitted
// per-metric thresholds become the checked-in baseline's thresholds when a
// run is promoted to bench/baselines/, so benches stamp loose bounds on
// noisy wall-time metrics and tight ones on dimensionless ratios there.
inline bool EmitBenchReport(const BenchReport& report, const std::string& path) {
  if (path.empty()) {
    return true;
  }
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "error: cannot write bench report %s\n", path.c_str());
    return false;
  }
  std::printf("Bench report written to %s\n", path.c_str());
  return true;
}

// Normalizes `value` against the row printed for a baseline.
inline std::string Ratio(double value, double baseline) {
  if (baseline <= 0.0) {
    return "-";
  }
  return Table::FmtFactor(value / baseline);
}

inline std::string Hours(double seconds) {
  return Table::Fmt(seconds / kHour, 2) + "h";
}

inline std::string Minutes(double seconds) {
  return Table::Fmt(seconds / kMinute, 1) + "m";
}

}  // namespace crius

#endif  // BENCH_BENCH_UTIL_H_
