#include "src/sim/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/core/oracle.h"
#include "src/sim/trace.h"

namespace crius {
namespace {

std::vector<TrainingJob> SampleTrace() {
  std::vector<TrainingJob> trace;
  TrainingJob a;
  a.id = 0;
  a.spec = ModelSpec{ModelFamily::kBert, 2.6, 128};
  a.iterations = 500;
  a.submit_time = 12.5;
  a.requested_gpus = 8;
  a.requested_type = GpuType::kA40;
  trace.push_back(a);
  TrainingJob b;
  b.id = 1;
  b.spec = ModelSpec{ModelFamily::kMoe, 10.0, 256};
  b.iterations = 1000;
  b.submit_time = 90.0;
  b.requested_gpus = 16;
  b.requested_type = GpuType::kV100;
  b.deadline = 5000.0;
  trace.push_back(b);
  return trace;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const auto trace = SampleTrace();
  std::stringstream ss;
  WriteTraceCsv(trace, ss);
  const auto loaded = ReadTraceCsv(ss);
  ASSERT_EQ(loaded.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].id, trace[i].id);
    EXPECT_TRUE(loaded[i].spec == trace[i].spec);
    EXPECT_EQ(loaded[i].iterations, trace[i].iterations);
    EXPECT_DOUBLE_EQ(loaded[i].submit_time, trace[i].submit_time);
    EXPECT_EQ(loaded[i].requested_gpus, trace[i].requested_gpus);
    EXPECT_EQ(loaded[i].requested_type, trace[i].requested_type);
    EXPECT_EQ(loaded[i].deadline.has_value(), trace[i].deadline.has_value());
    if (trace[i].deadline.has_value()) {
      EXPECT_DOUBLE_EQ(*loaded[i].deadline, *trace[i].deadline);
    }
  }
}

TEST(TraceIoTest, SyntheticTraceRoundTrip) {
  Cluster cluster = MakePhysicalTestbed();
  PerformanceOracle oracle(cluster, 42);
  TraceConfig config = PhillySixHourConfig();
  config.num_jobs = 30;
  config.deadline_fraction = 0.3;
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::stringstream ss;
  WriteTraceCsv(trace, ss);
  const auto loaded = ReadTraceCsv(ss);
  ASSERT_EQ(loaded.size(), trace.size());
  // Bit-exact doubles: a run on the saved trace must replay the run that saved
  // it (the golden matrix's saved_trace row checks the CSVs).
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].spec.Key(), trace[i].spec.Key());
    EXPECT_EQ(loaded[i].spec.params_billion, trace[i].spec.params_billion);
    EXPECT_EQ(loaded[i].iterations, trace[i].iterations);
    EXPECT_EQ(loaded[i].submit_time, trace[i].submit_time);
    EXPECT_EQ(loaded[i].deadline, trace[i].deadline);
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/crius_trace_io_test.csv";
  ASSERT_TRUE(WriteTraceCsvFile(SampleTrace(), path));
  const auto loaded = ReadTraceCsvFile(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].requested_type, GpuType::kV100);
}

TEST(TraceIoTest, EmptyTraceJustHeader) {
  std::stringstream ss;
  WriteTraceCsv({}, ss);
  const auto loaded = ReadTraceCsv(ss);
  EXPECT_TRUE(loaded.empty());
}

TEST(TraceIoDeathTest, MissingHeaderAborts) {
  std::stringstream ss("0,BERT,1.3,128,10,0,4,A100,\n");
  EXPECT_DEATH(ReadTraceCsv(ss), "header");
}

TEST(TraceIoDeathTest, WrongArityAborts) {
  std::stringstream ss("id,family,x\n0,BERT,1.3\n");
  EXPECT_DEATH(ReadTraceCsv(ss), "expected 9 fields");
}

TEST(TraceIoDeathTest, BadNumbersAbort) {
  std::stringstream ss(
      "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
      "requested_type,deadline\n0,BERT,abc,128,10,0,4,A100,\n");
  EXPECT_DEATH(ReadTraceCsv(ss), "bad params_billion");
}

TEST(TraceIoDeathTest, UnknownFamilyAborts) {
  std::stringstream ss(
      "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
      "requested_type,deadline\n0,GPT,1.3,128,10,0,4,A100,\n");
  EXPECT_DEATH(ReadTraceCsv(ss), "trace CSV line 2: unknown family 'GPT'");
}

TEST(TraceIoTest, JobRecordsCsvHasOneRowPerJob) {
  SimResult result;
  JobRecord r;
  r.id = 3;
  r.submit = 1.0;
  r.first_start = 2.0;
  r.finish = 10.0;
  r.finished = true;
  result.jobs.push_back(r);
  std::stringstream ss;
  WriteJobRecordsCsv(result, ss);
  std::string line;
  int rows = 0;
  while (std::getline(ss, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, 2);  // header + 1 job
  EXPECT_NE(ss.str().find("3,1,2,10,9,1,"), std::string::npos);
}

TEST(TraceIoTest, TimelineCsv) {
  SimResult result;
  result.timeline.push_back(ThroughputSample{300.0, 2.5, 3, 1, 24});
  std::stringstream ss;
  WriteTimelineCsv(result, ss);
  EXPECT_NE(ss.str().find("300,2.5,3,1,24"), std::string::npos);
}

TEST(TraceIoTest, EventsCsv) {
  SimResult result;
  result.events.push_back(SimEvent{120.0, SimEvent::Kind::kStart, 4, "A40x8/P2"});
  result.events.push_back(SimEvent{500.0, SimEvent::Kind::kFinish, 4, ""});
  std::stringstream ss;
  WriteEventsCsv(result, ss);
  EXPECT_NE(ss.str().find("time,kind,job_id,placement"), std::string::npos);
  EXPECT_NE(ss.str().find("120,start,4,A40x8/P2"), std::string::npos);
  EXPECT_NE(ss.str().find("500,finish,4,"), std::string::npos);
}

TEST(TraceIoTest, EventsCsvFileRoundTrip) {
  SimResult result;
  result.events.push_back(SimEvent{1.0, SimEvent::Kind::kDrop, 9, ""});
  const std::string path = ::testing::TempDir() + "/crius_events_test.csv";
  ASSERT_TRUE(WriteEventsCsvFile(result, path));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("1,drop,9,"), std::string::npos);
}

}  // namespace
}  // namespace crius
