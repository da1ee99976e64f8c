#include "src/serve/event_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace crius {
namespace {

ServeCommand Submit(int64_t id = 0) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kSubmit;
  cmd.job.id = id;
  return cmd;
}

ServeCommand Cancel(int64_t id) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kCancel;
  cmd.job_id = id;
  return cmd;
}

ServeCommand FailNode(int node_id) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kFailNode;
  cmd.node_id = node_id;
  return cmd;
}

ServeCommand Shutdown() {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kShutdown;
  return cmd;
}

std::vector<ServeCommand> Drain(EventQueue& queue) {
  std::vector<ServeCommand> out;
  queue.DrainInto(&out);
  return out;
}

ClusterView View(int queued_jobs, double oldest_wait, double projected_watts = 0.0) {
  ClusterView view;
  view.queued_jobs = queued_jobs;
  view.oldest_wait = oldest_wait;
  view.projected_watts = projected_watts;
  return view;
}

// These exact strings are the wire protocol's rejection vocabulary (DESIGN.md
// §12 table): session logs, client error payloads, and the
// serve.rejected.<reason> counters all carry them verbatim, so any change here
// is a breaking protocol change.
TEST(RejectReasonTest, NamesAreMachineReadableTokens) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(RejectReasonName(RejectReason::kClusterSaturated), "cluster_saturated");
  EXPECT_STREQ(RejectReasonName(RejectReason::kStarvationGuard), "starvation_guard");
  EXPECT_STREQ(RejectReasonName(RejectReason::kShuttingDown), "shutting_down");
  EXPECT_STREQ(RejectReasonName(RejectReason::kInfeasible), "infeasible");
  EXPECT_STREQ(RejectReasonName(RejectReason::kUnknownJob), "unknown_job");
  EXPECT_STREQ(RejectReasonName(RejectReason::kBadRequest), "bad_request");
  EXPECT_STREQ(RejectReasonName(RejectReason::kClusterPowerCap), "cluster_power_cap");
}

TEST(EventQueueTest, DrainsInArrivalOrder) {
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Submit(8)).has_value());
  EXPECT_FALSE(queue.TryPush(Submit(7)).has_value());
  EXPECT_FALSE(queue.TryPush(FailNode(3)).has_value());
  EXPECT_FALSE(queue.TryPush(Cancel(7)).has_value());
  EXPECT_EQ(queue.size(), 4u);

  const auto cmds = Drain(queue);
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].job.id, 8);
  EXPECT_EQ(cmds[1].job.id, 7);
  EXPECT_EQ(cmds[2].kind, ServeCommand::Kind::kFailNode);
  EXPECT_EQ(cmds[2].node_id, 3);
  EXPECT_EQ(cmds[3].kind, ServeCommand::Kind::kCancel);
  EXPECT_EQ(cmds[3].job_id, 7);
}

TEST(EventQueueTest, ShardsOtherThanOneAreRejected) {
  EventQueueConfig config;
  config.shards = 4;
  EXPECT_DEATH(EventQueue{config}, "shards must be 1");
}

TEST(EventQueueTest, CapacityRejectsEverythingButShutdown) {
  EventQueueConfig config;
  config.capacity = 2;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());

  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);
  reject = queue.TryPush(Cancel(1));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);

  // The shutdown command must always get through, or a full queue would make
  // the daemon unstoppable.
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
}

TEST(EventQueueTest, CapacityOneStillBackpressuresAndRecovers) {
  // The smallest legal queue: one slot total. The second push is rejected
  // with backpressure, a drain frees the slot, and a shutdown still passes
  // even while the slot is occupied.
  EventQueueConfig config;
  config.capacity = 1;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit(1)).has_value());
  auto reject = queue.TryPush(Submit(2));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);

  auto cmds = Drain(queue);
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].job.id, 1);
  EXPECT_FALSE(queue.TryPush(Submit(3)).has_value());

  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
  cmds = Drain(queue);
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].kind, ServeCommand::Kind::kSubmit);
  EXPECT_EQ(cmds[1].kind, ServeCommand::Kind::kShutdown);
}

TEST(EventQueueTest, SaturationRejectsOnlySubmissions) {
  EventQueueConfig config;
  config.max_pending_jobs = 4;
  EventQueue queue(config);
  queue.PublishClusterView(View(/*queued_jobs=*/4, /*oldest_wait=*/0.0));

  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kClusterSaturated);
  // Cancels shrink load; they pass.
  EXPECT_FALSE(queue.TryPush(Cancel(1)).has_value());

  queue.PublishClusterView(View(3, 0.0));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, StarvationGuardRejectsWhileBacklogIsOld) {
  EventQueueConfig config;
  config.starvation_wait = 600.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(1, /*oldest_wait=*/601.0));

  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kStarvationGuard);

  queue.PublishClusterView(View(1, 599.0));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, StarvationGuardAdmitsWaitExactlyAtThreshold) {
  // The guard is strictly greater-than: a backlog that has waited exactly
  // starvation_wait virtual seconds still admits new work. This pins the
  // boundary so the comparison cannot silently flip to >=.
  EventQueueConfig config;
  config.starvation_wait = 600.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(1, /*oldest_wait=*/600.0));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());

  queue.PublishClusterView(View(1, 600.0000001));
  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kStarvationGuard);
}

TEST(EventQueueTest, PowerCapRejectsSubmissionsAtOrAboveCap) {
  EventQueueConfig config;
  config.power_cap_watts = 5000.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(0, 0.0, /*projected_watts=*/5000.0));

  // The cap is at-or-above: draw exactly at the cap already rejects.
  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kClusterPowerCap);
  // Cancels shrink draw; they pass.
  EXPECT_FALSE(queue.TryPush(Cancel(1)).has_value());

  queue.PublishClusterView(View(0, 0.0, 4999.9));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, PowerCapDisabledIgnoresProjectedDraw) {
  // power_cap_watts == 0 disables the guard no matter how high the published
  // draw is (the view field is always populated once power accounting is on).
  EventQueue queue(EventQueueConfig{});
  queue.PublishClusterView(View(0, 0.0, /*projected_watts=*/1e9));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, ShutdownLatchesAndOnlyShutdownPasses) {
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());

  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);
  reject = queue.TryPush(Cancel(1));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);

  // The latch survives the controller's per-tick cluster-view refreshes.
  queue.PublishClusterView(View(0, 0.0));
  reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);

  // A second shutdown (e.g. drain then forced) still passes.
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
}

TEST(EventQueueTest, CancelAndHealthBeforeQueuedShutdownStayInBatch) {
  // Commands accepted before the shutdown arrived are not lost: the drain
  // delivers them first and synthesizes the shutdown at the end of the
  // batch, so the round loop applies the whole batch before breaking
  // (event_queue.h's contract for a shutdown racing queued work).
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Cancel(3)).has_value());
  EXPECT_FALSE(queue.TryPush(FailNode(2)).has_value());
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
  // Anything after the shutdown is rejected by the latch...
  EXPECT_TRUE(queue.TryPush(Cancel(4)).has_value());
  EXPECT_TRUE(queue.TryPush(FailNode(5)).has_value());

  // ...but the racing pre-shutdown commands all drain, shutdown last.
  const auto cmds = Drain(queue);
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_NE(cmds[0].kind, ServeCommand::Kind::kShutdown);
  EXPECT_NE(cmds[1].kind, ServeCommand::Kind::kShutdown);
  EXPECT_EQ(cmds[2].kind, ServeCommand::Kind::kShutdown);
  EXPECT_TRUE(cmds[2].drain);
}

TEST(EventQueueTest, DrainClearsBackpressure) {
  EventQueueConfig config;
  config.capacity = 1;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
  EXPECT_TRUE(queue.TryPush(Submit()).has_value());
  Drain(queue);
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, DrainIntoReplacesBatchAndTradesBuffers) {
  EventQueue queue(EventQueueConfig{});
  std::vector<ServeCommand> batch(3);  // stale commands from an earlier tick
  EXPECT_FALSE(queue.TryPush(Submit(1)).has_value());
  EXPECT_EQ(queue.DrainInto(&batch), 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job.id, 1);
  const ServeCommand* first = batch.data();

  EXPECT_FALSE(queue.TryPush(Submit(2)).has_value());
  EXPECT_EQ(queue.DrainInto(&batch), 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job.id, 2);
  const ServeCommand* second = batch.data();

  // Steady state: the batch and the queue trade the same two buffers at
  // every drain, so the tick loop never allocates.
  for (int64_t id = 3; id <= 8; ++id) {
    EXPECT_FALSE(queue.TryPush(Submit(id)).has_value());
    EXPECT_EQ(queue.DrainInto(&batch), 1u);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].job.id, id);
    EXPECT_EQ(batch.data(), id % 2 == 1 ? first : second);
  }
}

TEST(EventQueueTest, ExactBoundAtSmallCapacities) {
  for (const size_t capacity : {size_t{1}, size_t{2}}) {
    EventQueueConfig config;
    config.capacity = capacity;
    EventQueue queue(config);
    int64_t next_id = 1;
    for (int tick = 0; tick < 3; ++tick) {
      const int64_t first_id = next_id;
      for (size_t i = 0; i < capacity; ++i) {
        EXPECT_FALSE(queue.TryPush(Submit(next_id++)).has_value()) << capacity;
      }
      const auto reject = queue.TryPush(Submit(next_id));
      ASSERT_TRUE(reject.has_value()) << capacity;
      EXPECT_EQ(*reject, RejectReason::kQueueFull);
      const auto cmds = Drain(queue);
      ASSERT_EQ(cmds.size(), capacity);
      for (size_t i = 0; i < capacity; ++i) {
        EXPECT_EQ(cmds[i].job.id, first_id + static_cast<int64_t>(i));
      }
    }
  }
}

// Producers hammer one queue while a single consumer drains it; every
// accepted command must come out exactly once and each producer's own
// commands in push order. Run under TSan, this is the data-race check for
// the serve ingress path.
TEST(EventQueueTest, ConcurrentProducersDeliverEverythingExactlyOnceInOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  EventQueueConfig config;
  config.capacity = 1024;
  EventQueue queue(config);
  std::atomic<int> producers_done{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &producers_done, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t id = (static_cast<int64_t>(p) << 32) | i;
        while (queue.TryPush(Submit(id)).has_value()) {
          std::this_thread::yield();
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  std::vector<int64_t> got;
  got.reserve(static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<ServeCommand> batch;
  bool last_pass = false;
  while (!last_pass) {
    last_pass = producers_done.load(std::memory_order_acquire) == kProducers;
    queue.DrainInto(&batch);
    for (const ServeCommand& cmd : batch) {
      got.push_back(cmd.job.id);
    }
    if (batch.empty()) {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) {
    t.join();
  }

  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<int64_t> next(kProducers, 0);
  for (const int64_t id : got) {
    const int p = static_cast<int>(id >> 32);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    // Per-producer FIFO; together with the size check, exactly once.
    ASSERT_EQ(id & 0xffffffff, next[p]);
    ++next[p];
  }
}

TEST(EventQueueTest, PublishBumpsViewEpoch) {
  EventQueue queue(EventQueueConfig{});
  const uint64_t before = queue.view_epoch();
  queue.PublishClusterView(View(0, 0.0));
  queue.PublishClusterView(View(1, 2.0));
  EXPECT_EQ(queue.view_epoch(), before + 2);
}

}  // namespace
}  // namespace crius
