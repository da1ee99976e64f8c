// Tests for the simulator's event log (SimConfig::record_events), its CSV
// export, and the Chrome-trace conversion.

#include <gtest/gtest.h>

#include <sstream>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/chrome_export.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_io.h"
#include "tests/trace_json_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

TrainingJob MakeJob(int64_t id, double submit, int64_t iterations, int gpus = 4,
                    GpuType type = GpuType::kA100) {
  TrainingJob job;
  job.id = id;
  job.spec = kSmall;
  job.submit_time = submit;
  job.iterations = iterations;
  job.requested_gpus = gpus;
  job.requested_type = type;
  return job;
}

int CountKind(const SimResult& r, SimEvent::Kind kind, int64_t job_id = -1) {
  int n = 0;
  for (const SimEvent& e : r.events) {
    if (e.kind == kind && (job_id < 0 || e.job_id == job_id)) {
      ++n;
    }
  }
  return n;
}

// The simulation's tracks alone, as one standalone Chrome-trace document.
void WriteSimChromeTrace(const SimResult& result, std::ostream& out) {
  TraceRecorder recorder;
  AppendSimTrace(result, recorder);
  recorder.WriteJson(out);
}

TEST(SimEventsTest, DisabledByDefault) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  FcfsScheduler sched(&oracle);
  Simulator sim(cluster, SimConfig{});
  const SimResult r = sim.Run(sched, oracle, {MakeJob(0, 0.0, 10)});
  EXPECT_TRUE(r.events.empty());
}

TEST(SimEventsTest, SingleJobStartAndFinish) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  FcfsScheduler sched(&oracle);
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  const SimResult r = sim.Run(sched, oracle, {MakeJob(0, 0.0, 10)});
  ASSERT_EQ(r.events.size(), 2u);
  EXPECT_EQ(r.events[0].kind, SimEvent::Kind::kStart);
  EXPECT_EQ(r.events[0].job_id, 0);
  EXPECT_NE(r.events[0].placement.find("A100x4"), std::string::npos);
  EXPECT_EQ(r.events[1].kind, SimEvent::Kind::kFinish);
  EXPECT_GE(r.events[1].time, r.events[0].time);
}

TEST(SimEventsTest, EventsAreChronological) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  std::vector<TrainingJob> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MakeJob(i, i * 120.0, 200, 2, i % 2 ? GpuType::kV100 : GpuType::kA100));
  }
  const SimResult r = sim.Run(sched, oracle, trace);
  ASSERT_FALSE(r.events.empty());
  for (size_t i = 1; i < r.events.size(); ++i) {
    EXPECT_GE(r.events[i].time, r.events[i - 1].time);
  }
  // Every job has exactly one start and one finish.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(CountKind(r, SimEvent::Kind::kStart, i), 1) << "job " << i;
    EXPECT_EQ(CountKind(r, SimEvent::Kind::kFinish, i), 1) << "job " << i;
  }
}

TEST(SimEventsTest, RestartsMatchJobRecords) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  std::vector<TrainingJob> trace = {MakeJob(0, 0.0, 600, 4),
                                    MakeJob(1, 0.0, 600, 4, GpuType::kV100)};
  const SimResult r = sim.Run(sched, oracle, trace);
  int total_restarts = 0;
  for (const JobRecord& rec : r.jobs) {
    total_restarts += rec.restarts;
  }
  EXPECT_EQ(CountKind(r, SimEvent::Kind::kRestart), total_restarts);
}

TEST(SimEventsTest, DropEventsForDeadlineRejects) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{.deadline_aware = true});
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  // Submitted after t=0 so the drop lands at a positive round time.
  TrainingJob hopeless = MakeJob(0, 10.0, 100000000);
  hopeless.deadline = 30.0;
  const SimResult r = sim.Run(sched, oracle, {hopeless});
  EXPECT_EQ(r.dropped_jobs, 1);
  EXPECT_EQ(CountKind(r, SimEvent::Kind::kDrop, 0), 1);
  EXPECT_EQ(CountKind(r, SimEvent::Kind::kStart, 0), 0);
  // Even with nothing finished, the drop marks cluster activity (makespan
  // regression: it used to stay 0 for all-dropped traces).
  EXPECT_GT(r.makespan, 0.0);
}

TEST(SimEventsTest, EventsCsvRoundsTripAllRows) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  std::vector<TrainingJob> trace;
  for (int i = 0; i < 3; ++i) {
    trace.push_back(MakeJob(i, i * 60.0, 150, 2, i % 2 ? GpuType::kV100 : GpuType::kA100));
  }
  const SimResult r = sim.Run(sched, oracle, trace);
  ASSERT_FALSE(r.events.empty());

  std::ostringstream out;
  WriteEventsCsv(r, out);
  const std::string csv = out.str();
  // Header plus one line per event, each carrying the event's kind name.
  size_t lines = 0;
  for (char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, r.events.size() + 1);
  EXPECT_EQ(csv.compare(0, 5, "time,"), 0);
  for (const SimEvent& e : r.events) {
    EXPECT_NE(csv.find(SimEvent::KindName(e.kind)), std::string::npos);
  }
}

TEST(SimEventsTest, ChromeExportIsValidJsonWithJobTracks) {
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  SimConfig config;
  config.record_events = true;
  Simulator sim(cluster, config);
  std::vector<TrainingJob> trace;
  for (int i = 0; i < 3; ++i) {
    trace.push_back(MakeJob(i, i * 60.0, 150, 2, i % 2 ? GpuType::kV100 : GpuType::kA100));
  }
  const SimResult r = sim.Run(sched, oracle, trace);

  std::ostringstream out;
  WriteSimChromeTrace(r, out);
  const std::string json = out.str();
  EXPECT_TRUE(test::IsValidJson(json));
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(json.find("job " + std::to_string(i)), std::string::npos) << "job " << i;
  }
  EXPECT_NE(json.find("scheduler rounds"), std::string::npos);
  EXPECT_NE(json.find("busy_gpus"), std::string::npos);
}

TEST(SimEventsTest, ChromeExportWithoutEventsStillValid) {
  // With record_events off, only the round/counter tracks are emitted.
  Cluster cluster = MakeMotivationCluster();
  PerformanceOracle oracle(cluster, 42);
  FcfsScheduler sched(&oracle);
  Simulator sim(cluster, SimConfig{});
  const SimResult r = sim.Run(sched, oracle, {MakeJob(0, 0.0, 10)});
  ASSERT_TRUE(r.events.empty());
  std::ostringstream out;
  WriteSimChromeTrace(r, out);
  EXPECT_TRUE(test::IsValidJson(out.str()));
  EXPECT_EQ(out.str().find("job 0"), std::string::npos);
}

TEST(SimEventsTest, KindNamesAreStable) {
  EXPECT_STREQ(SimEvent::KindName(SimEvent::Kind::kStart), "start");
  EXPECT_STREQ(SimEvent::KindName(SimEvent::Kind::kRestart), "restart");
  EXPECT_STREQ(SimEvent::KindName(SimEvent::Kind::kPreempt), "preempt");
  EXPECT_STREQ(SimEvent::KindName(SimEvent::Kind::kFinish), "finish");
  EXPECT_STREQ(SimEvent::KindName(SimEvent::Kind::kDrop), "drop");
}

}  // namespace
}  // namespace crius
