// Golden-output matrix for features that must be inert by default.
//
// Each case runs one crius_sim configuration in process twice, with a
// feature off and on, and requires the jobs, timeline and events CSVs -- the
// bytes crius_sim --jobs-csv/--timeline-csv/--events-csv writes -- to be
// identical. The setup mirrors crius_sim's: the named cluster, seed 42 for
// both the trace and the oracle's profiling noise, and the event log
// recorded.
//
// Cases:
//   * power: --power off vs on (nominal DVFS). The ledger is a pure
//     observer and must not exist at all without the flag.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"

namespace crius {
namespace {

struct CsvOutputs {
  std::string jobs;
  std::string timeline;
  std::string events;
};

// crius_sim --cluster <cluster> --trace philly6h --jobs <jobs> --scheduler
// <scheduler>, with `configure` applied to the SimConfig.
CsvOutputs RunSim(const std::string& cluster_name, int jobs, const std::string& scheduler,
                  const std::function<void(SimConfig&)>& configure) {
  Cluster cluster = MakeNamedCluster(cluster_name);
  PerformanceOracle oracle(cluster, 42);
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = 42;
  trace_config.num_jobs = jobs;
  const std::vector<TrainingJob> trace = GenerateTrace(cluster, oracle, trace_config);
  auto sched = MakeNamedScheduler(scheduler, &oracle);
  SimConfig config;
  config.record_events = true;
  configure(config);
  Simulator sim(cluster, config);
  const SimResult result = sim.Run(*sched, oracle, trace);
  std::ostringstream jobs_csv, timeline_csv, events_csv;
  WriteJobRecordsCsv(result, jobs_csv);
  WriteTimelineCsv(result, timeline_csv);
  WriteEventsCsv(result, events_csv);
  return CsvOutputs{jobs_csv.str(), timeline_csv.str(), events_csv.str()};
}

void ExpectSameCsvs(const CsvOutputs& off, const CsvOutputs& on) {
  EXPECT_EQ(off.jobs, on.jobs) << "jobs CSV";
  EXPECT_EQ(off.timeline, on.timeline) << "timeline CSV";
  EXPECT_EQ(off.events, on.events) << "events CSV";
  // An empty run would pass trivially.
  EXPECT_NE(off.jobs.find('\n'), off.jobs.size() - 1) << "no job rows";
  EXPECT_NE(off.events.find('\n'), off.events.size() - 1) << "no event rows";
}

TEST(GoldenOutputsTest, PowerAccountingIsInert) {
  const CsvOutputs off = RunSim("motivation", 20, "crius", [](SimConfig&) {});
  const CsvOutputs on =
      RunSim("motivation", 20, "crius", [](SimConfig& config) { config.power.enabled = true; });
  ExpectSameCsvs(off, on);
}

}  // namespace
}  // namespace crius
