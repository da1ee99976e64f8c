// Figure 18: JCT and throughput on the two other production-trace shapes --
// Helios Venus (one day, moderate load) and Alibaba PAI (one day, low load) --
// on the 1,280-GPU simulated cluster.
//
// Paper numbers to compare against: Crius reduces average JCT by 64.7%
// (Helios) / 66.3% (PAI) vs baselines, with up to 1.48x / 1.29x average and
// 1.92x / 2.63x peak throughput.

#include <cstdio>

#include "bench/bench_util.h"

namespace crius {
namespace {

void RunTrace(const Cluster& cluster, PerformanceOracle& oracle, const TraceConfig& config,
              const char* figure) {
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("\n%s: %zu jobs (%s)\n", figure, trace.size(), config.name.c_str());

  // The five runs share the oracle, which belongs to one thread, so they run
  // one after another; each simulates its own cluster copy.
  std::vector<SimResult> results;
  for (auto& sched : MakeAllSchedulers(&oracle)) {
    Simulator sim(cluster, SimConfig{});
    results.push_back(sim.Run(*sched, oracle, trace));
  }
  const SimResult& crius = results.back();

  Table table(std::string(figure) + " (" + config.name + ")");
  table.SetHeader({"scheduler", "avg JCT", "median JCT", "max JCT", "avg thr", "peak thr",
                   "Crius thr ratio"});
  for (const SimResult& r : results) {
    table.AddRow({r.scheduler, Hours(r.avg_jct), Hours(r.median_jct), Hours(r.max_jct),
                  Table::Fmt(r.avg_throughput, 0), Table::Fmt(r.peak_throughput, 0),
                  &r == &crius ? "-" : Ratio(crius.avg_throughput, r.avg_throughput)});
  }
  table.Print();

  double worst_jct = 0.0;
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    worst_jct = std::max(worst_jct, results[i].avg_jct);
  }
  std::printf("Crius avg JCT reduction vs worst baseline: %.1f%%\n",
              (1.0 - crius.avg_jct / worst_jct) * 100.0);
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  ConfigureBenchThreads(argc, argv);
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);
  RunTrace(cluster, oracle, HeliosModerateConfig(), "Fig. 18(a)(c) Helios Venus, moderate load");
  RunTrace(cluster, oracle, PaiLowConfig(), "Fig. 18(b)(d) PAI, low load");
  return 0;
}
