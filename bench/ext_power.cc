// Extension: energy/performance Pareto sweep (src/power).
//
// Runs the testbed trace under every combination of a Crius objective weight
// vector (CriusObjective, --objective-weights semantics: throughput, energy
// (kW of a Cell's draw), fragmentation (GPU stranding left behind), fairness
// (upscale water-filling)) and a DVFS state (nominal / balanced / powersave,
// which scale both device draw and realized iteration time). The
// power ledger integrates per-node draw over the simulated timeline, so each
// cell reports total energy in kWh split useful/idle/lost, average JCT, and
// Jain's fairness index — the three axes of the Pareto frontier.
//
// The headline compares the throughput-only nominal corner (the seed
// scheduler's behavior) against the energy-weighted powersave corner: energy
// should drop by a double-digit percentage while avg JCT pays a bounded cost.
//
// Modes:
//   default   4 weight vectors x 3 DVFS states on the 244-job testbed trace
//             (12 simulations).
//   --smoke   24-job trace, 2 weight vectors x {nominal, powersave}; exits
//             non-zero unless (a) the joule ledger balances exactly
//             (total == useful + idle + lost), (b) powersave consumes less
//             energy than nominal at equal weights, and (c) energy weighting
//             does not zero out throughput (CI regression gate).
//   --jobs N  override the trace's job count (0 = keep the preset's default).
//   --json F  write a BENCH_power.json perf-trajectory report to F
//             (compared against bench/baselines/ by crius_benchdiff in CI).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/power/power.h"

namespace crius {
namespace {

struct WeightPoint {
  const char* label;
  CriusObjective objective;
};

SimResult RunOne(const Cluster& cluster, const std::vector<TrainingJob>& trace,
                 const CriusObjective& objective, const std::string& dvfs) {
  SimConfig config;
  config.power.enabled = true;
  config.power.dvfs = dvfs;
  // Fresh oracle per run: every (weights, dvfs) cell sees identical
  // profiling-noise draws, so deltas are the policy's, not cache warm-up.
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler scheduler(&oracle, CriusConfig{.objective = objective});
  Simulator sim(cluster, config);
  return sim.Run(scheduler, oracle, trace);
}

double Kwh(double joules) { return joules / 3.6e6; }

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  const bool smoke = BenchFlagPresent(argc, argv, "--smoke");
  const int jobs_override = static_cast<int>(BenchFlagInt(argc, argv, "--jobs", 0));

  Cluster cluster = MakePhysicalTestbed();
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  if (smoke) {
    trace_config.num_jobs = 24;
  }
  if (jobs_override > 0) {
    trace_config.num_jobs = jobs_override;
  }
  PerformanceOracle trace_oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, trace_oracle, trace_config);

  std::vector<WeightPoint> weights = {
      {"throughput", CriusObjective{}},
      {"energy", CriusObjective{1.0, 0.5, 0.0, 0.0}},
  };
  if (!smoke) {
    weights.push_back({"fragmentation", CriusObjective{1.0, 0.0, 0.5, 0.0}});
    weights.push_back({"balanced", CriusObjective{1.0, 0.3, 0.2, 0.3}});
  }
  const std::vector<std::string> dvfs_states =
      smoke ? std::vector<std::string>{"nominal", "powersave"}
            : std::vector<std::string>{"nominal", "balanced", "powersave"};
  std::printf("trace %s: %zu jobs on testbed cluster (%s)\n", trace_config.name.c_str(),
              trace.size(), smoke ? "smoke" : "full sweep");

  // [weights][dvfs]
  std::vector<std::vector<SimResult>> results(weights.size());
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    for (const std::string& dvfs : dvfs_states) {
      results[wi].push_back(RunOne(cluster, trace, weights[wi].objective, dvfs));
    }
  }

  Table table("Energy/performance Pareto sweep (weights x DVFS)");
  table.SetHeader({"weights", "dvfs", "energy", "useful", "idle", "lost", "avg JCT",
                   "Jain fairness"});
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    for (size_t di = 0; di < dvfs_states.size(); ++di) {
      const SimResult& r = results[wi][di];
      table.AddRow({weights[wi].label, dvfs_states[di],
                    Table::Fmt(Kwh(r.total_joules), 1) + " kWh",
                    Table::FmtPercent(r.useful_joules / r.total_joules),
                    Table::FmtPercent(r.idle_joules / r.total_joules),
                    Table::FmtPercent(r.lost_joules / r.total_joules), Hours(r.avg_jct),
                    Table::Fmt(r.fairness_index, 3)});
    }
  }
  table.Print();

  // Headline: the two Pareto corners. `base` is the seed scheduler's behavior
  // (throughput-only weights, nominal DVFS); `green` is the energy-weighted
  // run at the deepest DVFS state in the sweep.
  const SimResult& base = results.front().front();
  const SimResult& green = results[1].back();
  const double energy_saved = 1.0 - green.total_joules / base.total_joules;
  const double jct_cost = green.avg_jct / base.avg_jct - 1.0;
  std::printf("\nenergy-weighted %s vs throughput-only nominal: energy %+.1f%%, "
              "avg JCT %+.1f%%\n",
              dvfs_states.back().c_str(), -100.0 * energy_saved, 100.0 * jct_cost);

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "ext_power";
    report.meta["mode"] = smoke ? "smoke" : "full";
    report.meta["trace"] = trace_config.name;
    report.meta["jobs"] = std::to_string(trace.size());
    report.meta["dvfs_deepest"] = dvfs_states.back();
    // The simulation is deterministic, so energy and JCT can carry tight
    // bounds; the derived savings ratio is the headline the gate protects.
    report.AddMetric("base.energy_kwh", Kwh(base.total_joules), "kWh", "lower", 0.15);
    report.AddMetric("base.avg_jct_min", base.avg_jct / kMinute, "min", "lower", 0.2);
    report.AddMetric("base.fairness", base.fairness_index, "", "higher", 0.1);
    report.AddMetric("green.energy_kwh", Kwh(green.total_joules), "kWh", "lower", 0.15);
    report.AddMetric("green.avg_jct_min", green.avg_jct / kMinute, "min", "lower", 0.2);
    report.AddMetric("green.fairness", green.fairness_index, "", "higher", 0.1);
    report.AddMetric("energy_saved_frac", energy_saved, "", "higher", 0.15);
    report.AddMetric("useful_frac", base.useful_joules / base.total_joules, "", "higher", 0.1);
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }

  if (smoke) {
    for (size_t wi = 0; wi < weights.size(); ++wi) {
      for (size_t di = 0; di < dvfs_states.size(); ++di) {
        const SimResult& r = results[wi][di];
        const double residual =
            std::fabs(r.total_joules - (r.useful_joules + r.idle_joules + r.lost_joules));
        if (!r.power_enabled || r.total_joules <= 0.0 ||
            residual > 1e-6 * r.total_joules) {
          std::fprintf(stderr,
                       "FAIL: joule ledger off by %.6g J at weights=%s dvfs=%s "
                       "(total %.6g, useful %.6g, idle %.6g, lost %.6g)\n",
                       residual, weights[wi].label, dvfs_states[di].c_str(), r.total_joules,
                       r.useful_joules, r.idle_joules, r.lost_joules);
          return 1;
        }
      }
    }
    for (size_t wi = 0; wi < weights.size(); ++wi) {
      const SimResult& nominal = results[wi].front();
      const SimResult& deepest = results[wi].back();
      if (deepest.total_joules >= nominal.total_joules) {
        std::fprintf(stderr, "FAIL: %s at weights=%s used %.1f kWh, nominal %.1f kWh\n",
                     dvfs_states.back().c_str(), weights[wi].label,
                     Kwh(deepest.total_joules), Kwh(nominal.total_joules));
        return 1;
      }
    }
    if (green.finished_jobs == 0 || green.avg_throughput <= 0.0) {
      std::fprintf(stderr, "FAIL: energy weighting starved the cluster (%d finished)\n",
                   green.finished_jobs);
      return 1;
    }
    std::printf("ext_power smoke OK: ledger exact, energy %+.1f%% at avg JCT %+.1f%%\n",
                -100.0 * energy_saved, 100.0 * jct_cost);
  }
  return 0;
}
