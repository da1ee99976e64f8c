// The serve subsystem's core guarantee: a recorded live session, replayed
// through the batch simulator, produces bit-identical decision CSVs. The
// golden-output matrix (golden_outputs_test.cc, the live_* rows) checks it for
// whole sessions; these tests pin the session log's ordering, its torn-tail
// handling and the controller's job statuses.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/serve/controller.h"
#include "src/serve/replay.h"
#include "src/sim/trace_io.h"

namespace crius {
namespace {

TrainingJob BertJob() {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kBert, 0.76, 256};
  job.iterations = 40;
  job.requested_gpus = 8;
  job.requested_type = GpuType::kA40;
  return job;
}

TrainingJob WresJob() {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kWideResNet, 1.0, 256};
  job.iterations = 30;
  job.requested_gpus = 4;
  job.requested_type = GpuType::kA10;
  return job;
}

TrainingJob LongMoeJob() {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kMoe, 1.3, 512};
  job.iterations = 100000;  // long-running: the cancel target
  job.requested_gpus = 8;
  job.requested_type = GpuType::kA40;
  return job;
}

// Every command of this script is queued before the loop starts, so all of
// them land in the first tick: the batch must be applied -- and logged -- in
// exactly the order it was pushed, and the log must still replay to the live
// decisions.
TEST(ServeReplayTest, SameTickBatchAppliesInArrivalOrder) {
  SessionMeta meta;
  SessionRuntime runtime = MakeSessionRuntime(meta);
  std::stringstream log_stream;
  SessionLog log(log_stream, meta);

  Controller::Config config;
  config.tick_virtual_seconds = 60.0;
  config.tick_wall_seconds = 0.001;
  Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                        &log, config);
  std::vector<std::string> pushed;
  const TrainingJob rotation[] = {BertJob(), WresJob(), LongMoeJob()};
  for (int i = 0; i < 40; ++i) {
    TrainingJob job = rotation[i % 3];
    job.iterations = 5;
    job.requested_type = GpuType::kA40;
    const auto submit = controller.Submit(job);
    ASSERT_TRUE(submit.ok) << i;
    pushed.push_back("submit:" + std::to_string(submit.job_id));
  }
  ASSERT_FALSE(controller.Cancel(3).has_value());
  ASSERT_FALSE(controller.Cancel(17).has_value());
  ASSERT_FALSE(controller.FailNode(1).has_value());
  ASSERT_FALSE(controller.RecoverNode(1).has_value());
  pushed.insert(pushed.end(), {"cancel:3", "cancel:17", "fail_node:1", "recover_node:1"});
  ASSERT_FALSE(controller.Shutdown(/*drain=*/true).has_value());
  controller.Start();
  controller.Join();
  EXPECT_FALSE(controller.interrupted());
  const SimResult live = controller.TakeResult();

  // Rows after the header and the meta row, as kind:id, all at the first
  // tick's virtual time.
  std::vector<std::string> logged;
  std::istringstream rows(log_stream.str());
  std::string line;
  std::getline(rows, line);  // header
  std::getline(rows, line);  // meta
  while (std::getline(rows, line)) {
    std::vector<std::string> fields;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      fields.push_back(cell);
    }
    ASSERT_GE(fields.size(), 4u) << line;
    EXPECT_EQ(fields[0], "60") << line;
    const bool node_row = fields[1] == "fail_node" || fields[1] == "recover_node";
    logged.push_back(fields[1] + ":" + (node_row ? fields[3] : fields[2]));
  }
  EXPECT_EQ(logged, pushed);

  const SimResult replayed = ReplaySession(ReadSessionLog(log_stream));
  std::ostringstream live_jobs, replay_jobs;
  WriteJobRecordsCsv(live, live_jobs);
  WriteJobRecordsCsv(replayed, replay_jobs);
  EXPECT_EQ(live_jobs.str(), replay_jobs.str());
  std::ostringstream live_events, replay_events;
  WriteEventsCsv(live, live_events);
  WriteEventsCsv(replayed, replay_events);
  EXPECT_EQ(live_events.str(), replay_events.str());
}

// A daemon killed mid-append leaves a final row without its newline. Replay
// drops that row with a warning and runs the complete prefix.
TEST(ServeReplayTest, TornFinalRowReplaysTheCompletePrefix) {
  SessionMeta meta;
  const auto write_log = [&meta](int submits) {
    std::ostringstream out;
    SessionLog log(out, meta);
    const TrainingJob jobs[] = {BertJob(), WresJob(), LongMoeJob()};
    for (int i = 0; i < submits; ++i) {
      TrainingJob job = jobs[i];
      job.id = i + 1;
      job.iterations = 20;
      log.AppendSubmit(60.0 * (i + 1), job);
    }
    return out.str();
  };
  const std::string full = write_log(3);
  std::stringstream torn(full.substr(0, full.size() - 7));
  std::stringstream two_rows(write_log(2));

  testing::internal::CaptureStderr();
  const Session torn_session = ReadSessionLog(torn);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("session log truncated at line 5"),
            std::string::npos);
  ASSERT_EQ(torn_session.trace.size(), 2u);

  const auto csvs = [](const SimResult& result) {
    std::ostringstream out;
    WriteJobRecordsCsv(result, out);
    WriteEventsCsv(result, out);
    return out.str();
  };
  EXPECT_EQ(csvs(ReplaySession(torn_session)), csvs(ReplaySession(ReadSessionLog(two_rows))));
}

// A meta row naming a malformed cluster or an unknown scheduler is an error
// naming the field, not an abort; the aborting form still builds good rows.
TEST(ServeReplayTest, MalformedMetaIsAnError) {
  SessionMeta bad_cluster;
  bad_cluster.cluster_spec = "A100:0x4";
  SessionRuntime runtime;
  std::string error;
  EXPECT_FALSE(MakeSessionRuntime(bad_cluster, &runtime, &error));
  EXPECT_EQ(error, "session meta cluster 'A100:0x4': bad node count in 'A100:0x4'");
  EXPECT_EQ(runtime.scheduler, nullptr);

  SessionMeta bad_scheduler;
  bad_scheduler.scheduler = "nope";
  EXPECT_FALSE(MakeSessionRuntime(bad_scheduler, &runtime, &error));
  EXPECT_EQ(error, "session meta scheduler 'nope': unknown scheduler");

  ASSERT_TRUE(MakeSessionRuntime(SessionMeta{}, &runtime, &error)) << error;
  EXPECT_EQ(runtime.scheduler->name(), MakeSessionRuntime(SessionMeta{}).scheduler->name());
}

TEST(ServeReplayTest, StatusesSettleAfterDrain) {
  SessionMeta meta;
  SessionRuntime runtime = MakeSessionRuntime(meta);

  Controller::Config config;
  config.tick_virtual_seconds = 60.0;
  config.tick_wall_seconds = 0.0;
  Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                        /*log=*/nullptr, config);
  controller.Start();

  const auto a = controller.Submit(BertJob());
  ASSERT_TRUE(a.ok);
  ASSERT_FALSE(controller.Shutdown(true).has_value());
  controller.Join();
  (void)controller.TakeResult();

  const Controller::JobStatus status = controller.Query(a.job_id);
  ASSERT_TRUE(status.known);
  EXPECT_EQ(status.state, "finished");
  EXPECT_GE(status.first_start, 0.0);
  EXPECT_GT(status.finish_time, status.first_start);

  EXPECT_FALSE(controller.Query(9999).known);
}

TEST(ServeReplayTest, SubmitAfterShutdownRejectedWithReason) {
  SessionMeta meta;
  SessionRuntime runtime = MakeSessionRuntime(meta);

  Controller::Config config;
  config.tick_wall_seconds = 0.0;
  Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                        nullptr, config);
  controller.Start();
  ASSERT_FALSE(controller.Shutdown(true).has_value());

  const auto rejected = controller.Submit(BertJob());
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.reason, RejectReason::kShuttingDown);
  EXPECT_STREQ(RejectReasonName(rejected.reason), "shutting_down");

  controller.Join();
  (void)controller.TakeResult();
}

}  // namespace
}  // namespace crius
