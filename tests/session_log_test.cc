#include "src/serve/session_log.h"

#include <gtest/gtest.h>

#include <sstream>

namespace crius {
namespace {

SessionMeta SampleMeta() {
  SessionMeta meta;
  meta.cluster_spec = "A100:8x4,A40:4x2";  // commas: exercises CSV quoting
  meta.scheduler = "gavel";
  meta.seed = 1234;
  meta.search_depth = 2;
  meta.deadline_aware = true;
  meta.schedule_interval = 123.25;
  meta.restart_overhead = 45.5;
  meta.charge_profiling = false;
  return meta;
}

TrainingJob SampleJob() {
  TrainingJob job;
  job.id = 7;
  job.spec = ModelSpec{ModelFamily::kMoe, 2.4, 512};
  job.iterations = 321;
  job.submit_time = 60.0;
  job.requested_gpus = 16;
  job.requested_type = GpuType::kA40;
  return job;
}

TEST(SessionMetaTest, DetailRoundTrip) {
  const SessionMeta meta = SampleMeta();
  const SessionMeta parsed = ParseSessionMeta(SerializeSessionMeta(meta), 2);
  EXPECT_EQ(parsed.cluster_spec, meta.cluster_spec);
  EXPECT_EQ(parsed.scheduler, meta.scheduler);
  EXPECT_EQ(parsed.seed, meta.seed);
  EXPECT_EQ(parsed.search_depth, meta.search_depth);
  EXPECT_EQ(parsed.deadline_aware, meta.deadline_aware);
  EXPECT_DOUBLE_EQ(parsed.schedule_interval, meta.schedule_interval);
  EXPECT_DOUBLE_EQ(parsed.restart_overhead, meta.restart_overhead);
  EXPECT_EQ(parsed.charge_profiling, meta.charge_profiling);
}

TEST(SessionMetaTest, PowerFieldsAbsentUnlessEnabled) {
  // Inertness pin: a session recorded without power accounting must emit the
  // exact meta row the seed emitted — no power/dvfs/power_cap_watts keys — so
  // old logs and new logs of power-off sessions stay byte-identical.
  const std::string row = SerializeSessionMeta(SampleMeta());
  EXPECT_EQ(row.find("power"), std::string::npos);
  EXPECT_EQ(row.find("dvfs"), std::string::npos);
}

TEST(SessionMetaTest, PowerFieldsRoundTrip) {
  SessionMeta meta = SampleMeta();
  meta.power = true;
  meta.dvfs = "powersave";
  meta.power_cap_watts = 12345.5;
  const std::string row = SerializeSessionMeta(meta);
  EXPECT_NE(row.find(";power=1;"), std::string::npos);
  const SessionMeta parsed = ParseSessionMeta(row, 2);
  EXPECT_TRUE(parsed.power);
  EXPECT_EQ(parsed.dvfs, "powersave");
  EXPECT_DOUBLE_EQ(parsed.power_cap_watts, 12345.5);
}

TEST(SessionMetaTest, AcceptsAndIgnoresLegacyIncrementalKey) {
  // Older builds wrote an `incremental=0|1` scheduler knob into the meta row.
  // Those logs must still parse (the knob never changed decisions), and the
  // key is no longer written.
  const std::string legacy_prefix =
      "cluster=testbed;scheduler=crius;seed=42;search_depth=3;deadline_aware=0;";
  const std::string legacy_suffix =
      ";schedule_interval=300;restart_overhead=60;charge_profiling=1;reconfig=0";
  for (const char* value : {"1", "0"}) {
    const SessionMeta parsed =
        ParseSessionMeta(legacy_prefix + "incremental=" + value + legacy_suffix, 2);
    EXPECT_EQ(parsed.cluster_spec, "testbed");
    EXPECT_EQ(parsed.scheduler, "crius");
    EXPECT_EQ(parsed.seed, 42u);
    EXPECT_EQ(parsed.search_depth, 3);
    EXPECT_DOUBLE_EQ(parsed.schedule_interval, 300.0);
    EXPECT_TRUE(parsed.charge_profiling);
    EXPECT_FALSE(parsed.reconfig);
  }
  EXPECT_EQ(SerializeSessionMeta(SessionMeta{}).find("incremental"), std::string::npos);
}

TEST(SessionMetaDeathTest, BadLegacyIncrementalValueAborts) {
  EXPECT_DEATH(ParseSessionMeta("cluster=testbed;incremental=x", 2), "bad incremental 'x'");
}

TEST(SessionLogTest, RoundTripPreservesEverything) {
  std::stringstream ss;
  {
    SessionLog log(ss, SampleMeta());
    TrainingJob a = SampleJob();
    log.AppendSubmit(60.0, a);
    TrainingJob b = SampleJob();
    b.id = 8;
    b.spec = ModelSpec{ModelFamily::kBert, 1.3, 256};
    b.submit_time = 120.0;
    b.deadline = 9999.5;
    log.AppendSubmit(120.0, b);
    log.AppendFailNode(180.0, 3);
    log.AppendRecoverNode(240.0, 3);
    log.AppendCancel(300.0, 8);
  }

  const Session session = ReadSessionLog(ss);

  EXPECT_EQ(session.meta.cluster_spec, "A100:8x4,A40:4x2");
  EXPECT_EQ(session.meta.scheduler, "gavel");

  ASSERT_EQ(session.trace.size(), 2u);
  const TrainingJob& a = session.trace[0];
  EXPECT_EQ(a.id, 7);
  EXPECT_TRUE(a.spec == (ModelSpec{ModelFamily::kMoe, 2.4, 512}));
  EXPECT_EQ(a.iterations, 321);
  EXPECT_DOUBLE_EQ(a.submit_time, 60.0);
  EXPECT_EQ(a.requested_gpus, 16);
  EXPECT_EQ(a.requested_type, GpuType::kA40);
  EXPECT_FALSE(a.deadline.has_value());
  const TrainingJob& b = session.trace[1];
  EXPECT_EQ(b.id, 8);
  ASSERT_TRUE(b.deadline.has_value());
  EXPECT_DOUBLE_EQ(*b.deadline, 9999.5);

  ASSERT_EQ(session.failures.size(), 2u);
  EXPECT_EQ(session.failures[0].kind, FailureKind::kNodeFail);
  EXPECT_EQ(session.failures[0].node_id, 3);
  EXPECT_DOUBLE_EQ(session.failures[0].time, 180.0);
  EXPECT_EQ(session.failures[1].kind, FailureKind::kNodeRecover);

  ASSERT_EQ(session.cancels.size(), 1u);
  EXPECT_EQ(session.cancels[0].job_id, 8);
  EXPECT_DOUBLE_EQ(session.cancels[0].time, 300.0);
}

TEST(SessionLogTest, DoublesRoundTripExactly) {
  std::stringstream ss;
  SessionMeta meta;
  meta.schedule_interval = 1.0 / 3.0;
  {
    SessionLog log(ss, meta);
    TrainingJob job = SampleJob();
    job.submit_time = 0.1 + 0.2;  // not representable: exercises max_digits10
    log.AppendSubmit(job.submit_time, job);
  }
  const Session session = ReadSessionLog(ss);
  EXPECT_EQ(session.meta.schedule_interval, 1.0 / 3.0);
  ASSERT_EQ(session.trace.size(), 1u);
  EXPECT_EQ(session.trace[0].submit_time, 0.1 + 0.2);
}

TEST(SessionLogTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/crius_session_log_test.csv";
  {
    SessionLog log(path, SampleMeta());
    log.AppendSubmit(60.0, SampleJob());
  }
  const Session session = ReadSessionLogFile(path);
  EXPECT_EQ(session.meta.seed, 1234u);
  ASSERT_EQ(session.trace.size(), 1u);
  EXPECT_EQ(session.trace[0].id, 7);
}

std::string Header() {
  return "time,kind,job_id,node_id,family,params_billion,global_batch,iterations,"
         "requested_gpus,requested_type,deadline,detail\n";
}

std::string MetaRow() {
  return "0,meta,-1,-1,,,,,,,," + SerializeSessionMeta(SessionMeta{}) + "\n";
}

TEST(SessionLogDeathTest, MissingHeaderAborts) {
  std::stringstream ss(MetaRow());
  EXPECT_DEATH(ReadSessionLog(ss), "missing header");
}

TEST(SessionLogDeathTest, MissingMetaRowAborts) {
  std::stringstream ss(Header() + "60,submit,1,-1,BERT,1.3,256,10,8,A100,,\n");
  EXPECT_DEATH(ReadSessionLog(ss), "meta");
}

TEST(SessionLogDeathTest, DuplicateMetaRowAborts) {
  std::stringstream ss(Header() + MetaRow() + MetaRow());
  EXPECT_DEATH(ReadSessionLog(ss), "meta");
}

TEST(SessionLogDeathTest, WrongArityAborts) {
  std::stringstream ss(Header() + MetaRow() + "60,submit,1\n");
  EXPECT_DEATH(ReadSessionLog(ss), "expected 12 fields");
}

TEST(SessionLogDeathTest, UnknownKindAborts) {
  std::stringstream ss(Header() + MetaRow() + "60,resize,1,-1,,,,,,,,\n");
  EXPECT_DEATH(ReadSessionLog(ss), "unknown kind");
}

TEST(SessionLogDeathTest, UnknownFamilyAborts) {
  std::stringstream ss(Header() + MetaRow() + "60,submit,1,-1,GPT,1.3,256,10,8,A100,,\n");
  EXPECT_DEATH(ReadSessionLog(ss), "session log line 3: unknown family 'GPT'");
}

TEST(SessionLogDeathTest, CutRowBeforeTheLastLineAborts) {
  // Only the final line may be torn; a cut row followed by more rows is
  // corruption, not an interrupted append.
  std::stringstream ss(Header() + MetaRow() + "60,submit,1,-1,BERT,1.3,25\n" +
                       "120,cancel,1,-1,,,,,,,,\n");
  EXPECT_DEATH(ReadSessionLog(ss), "expected 12 fields");
}

TEST(SessionLogDeathTest, BadNumberAborts) {
  std::stringstream ss(Header() + MetaRow() + "abc,cancel,1,-1,,,,,,,,\n");
  EXPECT_DEATH(ReadSessionLog(ss), "bad time");
}

}  // namespace
}  // namespace crius
