#include "src/sim/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string_view>

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
  std::stringstream ss(
      "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
      "requested_type,deadline\n0,BERT,1.3\n");
  EXPECT_DEATH(ReadTraceCsv(ss), "expected 9 fields");
}

constexpr char kHeader[] =
    "id,family,params_billion,global_batch,iterations,submit_time,requested_gpus,"
    "requested_type,deadline\n";

// The status form reports what the aborting form dies of, naming the line and
// the field, and leaves no partial trace behind.
TEST(TraceIoTest, StatusFormNamesLineAndField) {
  const struct {
    const char* rows;   // appended to the full header; nullptr reads `input` alone
    const char* input;
    const char* error;
  } kCases[] = {
      {nullptr, "", "trace CSV: missing header row"},
      {nullptr, "id,family,params_billion,global_batch,iterations,submit_time\n",
       "trace CSV line 1: bad header 'id,family,params_billion,global_batch,iterations,"
       "submit_time' (want 'id,family,"},
      {"0,BERT,1.3,128,100,0,4,A100,abc\n", nullptr, "trace CSV line 2: bad deadline 'abc'"},
      {"0,BERT,1.3,128,100,0,4,A100,\n1,BERT,1.3,12", nullptr,
       "trace CSV line 3: expected 9 fields, got 4"},
      {"\n0,BERT,1.3,128,,0,4,A100,\n", nullptr, "trace CSV line 3: empty iterations"},
      {"0.5,BERT,1.3,128,100,0,4,A100,\n", nullptr, "trace CSV line 2: non-integer id"},
      {"0,BERT,1.3,1e300,100,0,4,A100,\n", nullptr,
       "trace CSV line 2: out-of-range global_batch '1e300'"},
      {"0,BERT,1.3,128,100,0,3,A100,\n", nullptr,
       "trace CSV line 2: requested_gpus 3 is not a power of two"},
      {"0,BERT,1.3,128,100,0,4,H100,\n", nullptr,
       "trace CSV line 2: unknown requested_type 'H100'"},
      {"0,GPT,1.3,128,100,0,4,A100,\n", nullptr, "trace CSV line 2: unknown family 'GPT'"},
      {"0,BERT,1.5,128,100,0,4,A100,\n", nullptr,
       "trace CSV line 2: unsupported params_billion 1.5 for BERT"},
      {"0,BERT,1.3,0,100,0,4,A100,\n", nullptr, "trace CSV line 2: global_batch 0 is not positive"},
      {"0,BERT,1.3,128,100,nan,4,A100,\n", nullptr,
       "trace CSV line 2: submit_time nan is not finite"},
      {"7,BERT,1.3,128,100,0,4,A100,\n7,BERT,1.3,128,100,5,4,A100,\n", nullptr,
       "trace CSV line 3: duplicate id 7"},
  };
  for (const auto& c : kCases) {
    std::string csv = c.rows != nullptr ? kHeader : c.input;
    if (c.rows != nullptr) {
      csv += c.rows;
    }
    SCOPED_TRACE(csv);
    std::stringstream ss(csv);
    std::vector<TrainingJob> trace = SampleTrace();
    std::string error;
    EXPECT_FALSE(ReadTraceCsv(ss, &trace, &error));
    EXPECT_EQ(error.substr(0, std::string(c.error).size()), c.error);
    EXPECT_TRUE(trace.empty());
  }
}

// A final row without its newline still loads when it is whole; the header
// may end in CRLF.
TEST(TraceIoTest, StatusFormAcceptsWholeRows) {
  std::stringstream ss;
  ss << std::string_view(kHeader).substr(0, sizeof(kHeader) - 2) << "\r\n"
     << "0,BERT,1.3,128,100,0,4,A100,50.5";
  std::vector<TrainingJob> trace;
  std::string error;
  ASSERT_TRUE(ReadTraceCsv(ss, &trace, &error)) << error;
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].deadline, 50.5);
}

// A caller's job check rejects a well-formed row on the row's line; jobs it
// accepts load as usual.
TEST(TraceIoTest, JobCheckRejectsOnTheRowsLine) {
  const std::string csv = std::string(kHeader) +
                          "0,BERT,1.3,128,100,0,4,A100,\n"
                          "\n"
                          "1,BERT,1.3,128,100,5,8,A100,\n";
  auto at_most_four = [](const TrainingJob& job, std::string* why) {
    if (job.requested_gpus <= 4) {
      return true;
    }
    *why = "job " + std::to_string(job.id) + " wants " + std::to_string(job.requested_gpus);
    return false;
  };
  std::stringstream ss(csv);
  std::vector<TrainingJob> trace;
  std::string error;
  EXPECT_FALSE(ReadTraceCsv(ss, &trace, &error, at_most_four));
  EXPECT_EQ(error, "trace CSV line 4: job 1 wants 8");
  EXPECT_TRUE(trace.empty());
  std::stringstream again(csv);
  ASSERT_TRUE(ReadTraceCsv(again, &trace, &error, [](const TrainingJob&, std::string*) {
    return true;
  })) << error;
  EXPECT_EQ(trace.size(), 2u);
}

TEST(TraceIoTest, FileStatusFormNamesTheFile) {
  const std::string path = ::testing::TempDir() + "/crius_trace_io_bad.csv";
  {
    std::ofstream out(path);
    out << kHeader << "0,BERT,1.3,128,100,zero,4,A100,\n";
  }
  std::vector<TrainingJob> trace;
  std::string error;
  EXPECT_FALSE(ReadTraceCsvFile(path, &trace, &error));
  EXPECT_EQ(error, "trace CSV " + path + " line 2: bad submit_time 'zero'");
  EXPECT_FALSE(ReadTraceCsvFile(path + ".missing", &trace, &error));
  EXPECT_EQ(error, "cannot open trace file " + path + ".missing");
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
