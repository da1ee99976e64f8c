// Tests for failure-trace CSV persistence (src/fault/fault_trace_io).

#include "src/fault/fault_trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/util/units.h"

namespace crius {
namespace {

TEST(FaultTraceIoTest, RoundTripsAnInjectorSchedule) {
  const Cluster cluster = MakePhysicalTestbed();
  FailureInjectorConfig config;
  config.node_mtbf_hours = 4.0;
  config.gpu_mtbf_hours = 12.0;
  config.straggler_rate = 0.05;
  config.horizon = 24.0 * kHour;
  const auto events = GenerateFailureSchedule(cluster, config);
  ASSERT_FALSE(events.empty());

  std::stringstream ss;
  WriteFailureTraceCsv(events, ss);
  // max_digits10 serialization: the reload is bit-exact, so a replayed
  // simulation is identical to the generating run.
  EXPECT_EQ(ReadFailureTraceCsv(ss), events);
}

TEST(FaultTraceIoTest, ReaderSortsHandWrittenFiles) {
  std::stringstream ss(
      "time,kind,node_id,gpus,slowdown\n"
      "2400,node_recover,3,0,1\n"
      "600,node_fail,3,0,1\n"
      "60,straggler_start,1,0,1.8\n");
  const auto events = ReadFailureTraceCsv(ss);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FailureKind::kStragglerStart);
  EXPECT_DOUBLE_EQ(events[0].slowdown, 1.8);
  EXPECT_EQ(events[1].kind, FailureKind::kNodeFail);
  EXPECT_EQ(events[2].kind, FailureKind::kNodeRecover);
}

// The status form: each malformed input is an error naming its line and
// field, and leaves no events behind.
std::string RejectReason(const std::string& text) {
  std::stringstream ss(text);
  std::vector<FailureEvent> events = {FailureEvent{}};
  std::string error;
  EXPECT_FALSE(ReadFailureTraceCsv(ss, &events, &error)) << text;
  EXPECT_TRUE(events.empty()) << text;
  return error;
}

constexpr char kHeader[] = "time,kind,node_id,gpus,slowdown\n";

TEST(FaultTraceIoTest, StatusFormReadsWhatTheAbortingFormReads) {
  const std::string text = std::string(kHeader) + "\r\n600,node_fail,3,0,1\r\n\n60,gpu_fail,1,2,1\n";
  std::stringstream ss(text);
  std::vector<FailureEvent> events;
  std::string error;
  ASSERT_TRUE(ReadFailureTraceCsv(ss, &events, &error)) << error;
  std::stringstream again(text);
  EXPECT_EQ(events, ReadFailureTraceCsv(again));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FailureKind::kGpuFail);
}

TEST(FaultTraceIoTest, RejectsAMissingHeader) {
  EXPECT_EQ(RejectReason("600,node_fail,3,0,1\n"),
            "failure trace line 1: bad header '600,node_fail,3,0,1' (want "
            "'time,kind,node_id,gpus,slowdown')");
  EXPECT_EQ(RejectReason("\n\n"), "failure trace: missing header row");
}

TEST(FaultTraceIoTest, RejectsAShortHeader) {
  EXPECT_EQ(RejectReason("time,kind,node_id\n"),
            "failure trace line 1: bad header 'time,kind,node_id' (want "
            "'time,kind,node_id,gpus,slowdown')");
}

TEST(FaultTraceIoTest, RejectsAShortRow) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,node_fail,3\n"),
            "failure trace line 2: expected 5 fields, got 3");
}

TEST(FaultTraceIoTest, RejectsAnUnknownKind) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "0,node_fail,1,0,1\n600,explode,3,0,1\n"),
            "failure trace line 3: unknown kind 'explode'");
}

TEST(FaultTraceIoTest, RejectsABadNumber) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "soon,node_fail,3,0,1\n"),
            "failure trace line 2: bad time 'soon'");
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,node_fail,3.5,0,1\n"),
            "failure trace line 2: non-integer node_id");
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,gpu_fail,3,1e12,1\n"),
            "failure trace line 2: out-of-range gpus '1e12'");
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,node_fail,3,0,\n"),
            "failure trace line 2: empty slowdown");
}

TEST(FaultTraceIoTest, RejectsANegativeOrNonFiniteTime) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "-5,node_fail,3,0,1\n"),
            "failure trace line 2: time -5 is negative or not finite");
  EXPECT_EQ(RejectReason(std::string(kHeader) + "inf,node_fail,3,0,1\n"),
            "failure trace line 2: time inf is negative or not finite");
  EXPECT_EQ(RejectReason(std::string(kHeader) + "nan,node_fail,3,0,1\n"),
            "failure trace line 2: time nan is negative or not finite");
}

TEST(FaultTraceIoTest, RejectsANegativeNodeId) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,node_fail,-1,0,1\n"),
            "failure trace line 2: negative node_id -1");
}

TEST(FaultTraceIoTest, RejectsAStragglerSlowdownBelowOne) {
  EXPECT_EQ(RejectReason(std::string(kHeader) + "600,straggler_start,3,0,0.5\n"),
            "failure trace line 2: straggler slowdown 0.5 is below 1");
  // Only a straggler start carries a slowdown.
  std::stringstream end(std::string(kHeader) + "600,straggler_end,3,0,0.5\n");
  std::vector<FailureEvent> events;
  std::string error;
  EXPECT_TRUE(ReadFailureTraceCsv(end, &events, &error)) << error;
}

TEST(FaultTraceIoTest, FileFormNamesTheFile) {
  std::vector<FailureEvent> events;
  std::string error;
  EXPECT_FALSE(ReadFailureTraceCsvFile("/nonexistent/faults.csv", &events, &error));
  EXPECT_EQ(error, "cannot open failure trace /nonexistent/faults.csv");
  const std::string path = ::testing::TempDir() + "fault_trace_io_test_bad_kind.csv";
  {
    std::ofstream out(path);
    out << kHeader << "600,explode,3,0,1\n";
  }
  EXPECT_FALSE(ReadFailureTraceCsvFile(path, &events, &error));
  EXPECT_EQ(error, "failure trace " + path + " line 2: unknown kind 'explode'");
  std::remove(path.c_str());
}

TEST(FaultTraceIoDeathTest, MissingHeaderAborts) {
  std::stringstream ss("600,node_fail,3,0,1\n");
  EXPECT_DEATH(ReadFailureTraceCsv(ss), "header");
}

TEST(FaultTraceIoDeathTest, WrongFieldCountAborts) {
  std::stringstream ss("time,kind,node_id,gpus,slowdown\n600,node_fail,3\n");
  EXPECT_DEATH(ReadFailureTraceCsv(ss), "5 fields");
}

TEST(FaultTraceIoDeathTest, UnknownKindAborts) {
  std::stringstream ss("time,kind,node_id,gpus,slowdown\n600,meteor_strike,3,0,1\n");
  EXPECT_DEATH(ReadFailureTraceCsv(ss), "unknown kind");
}

TEST(FaultTraceIoDeathTest, NegativeTimeAborts) {
  std::stringstream ss("time,kind,node_id,gpus,slowdown\n-5,node_fail,3,0,1\n");
  EXPECT_DEATH(ReadFailureTraceCsv(ss), "negative");
}

TEST(FaultTraceIoDeathTest, SubUnitStragglerSlowdownAborts) {
  std::stringstream ss("time,kind,node_id,gpus,slowdown\n600,straggler_start,3,0,0.5\n");
  EXPECT_DEATH(ReadFailureTraceCsv(ss), "slowdown");
}

}  // namespace
}  // namespace crius
