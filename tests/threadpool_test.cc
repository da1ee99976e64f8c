#include "src/util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace crius {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;  // far more tasks than threads
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(17, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPoolTest, BackToBackBatchesStress) {
  // Regression test for the inter-batch race: a worker still claiming from
  // one batch must never claim an index of the next one through the previous
  // batch's fn or counter, and a worker that wakes late must not join a batch
  // the caller already retired. Tiny, immediately consecutive batches
  // maximize the window where a stale worker overlaps the next ParallelFor's
  // setup.
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    const size_t n = static_cast<size_t>(2 + round % 7);
    std::atomic<int> count{0};
    pool.ParallelFor(n, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(count.load(), static_cast<int>(n)) << "round " << round;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(8, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: inline execution, no concurrency
  });
  std::vector<size_t> expected(8);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, SingleTaskRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "no task should run"; });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(8, [&](size_t outer) {
    // A nested call from inside a pool task must run inline (not deadlock on
    // the pool's batch mutex).
    pool.ParallelFor(8, [&](size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SlotResultsMatchSequential) {
  // The determinism contract: fan-out into caller-owned slots produces exactly
  // what the sequential loop produces.
  auto compute = [](size_t i) { return static_cast<double>(i * i) + 0.5; };
  constexpr size_t kN = 257;
  std::vector<double> sequential(kN);
  for (size_t i = 0; i < kN; ++i) {
    sequential[i] = compute(i);
  }
  ThreadPool pool(5);
  std::vector<double> parallel(kN);
  pool.ParallelFor(kN, [&](size_t i) { parallel[i] = compute(i); });
  EXPECT_EQ(parallel, sequential);
}

TEST(ThreadPoolTest, BlockedTaskDoesNotStallOtherIndices) {
  // Indices are claimed from one shared counter, so while one participant
  // sits in a long task the others claim and finish every remaining index.
  // Task 0 waits (bounded) for the rest to finish before it returns.
  ThreadPool pool(2);
  constexpr size_t kN = 64;
  std::atomic<size_t> others_done{0};
  std::atomic<bool> saw_all{false};
  pool.ParallelFor(kN, [&](size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kN - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    saw_all = others_done.load() == kN - 1;
  });
  EXPECT_TRUE(saw_all.load());
  EXPECT_EQ(others_done.load(), kN - 1);
}

TEST(ThreadPoolTest, ConcurrentExternalCallersEachCompleteTheirBatch) {
  // Two threads outside the pool share it; their fan-outs run one at a time
  // and each sees every one of its own indices exactly once.
  ThreadPool pool(3);
  constexpr size_t kN = 200;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  auto caller = [&](std::vector<std::atomic<int>>* hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(kN, [&](size_t i) { (*hits)[i].fetch_add(1); });
    }
  };
  std::thread a(caller, &hits_a);
  std::thread b(caller, &hits_b);
  a.join();
  b.join();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << "index " << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << "index " << i;
  }
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.threads(), 1);
}

TEST(ThreadPoolTest, GlobalPoolConfigurable) {
  const int before = ThreadPool::Global().threads();
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().threads(), 3);
  std::atomic<int> sum{0};
  ThreadPool::Global().ParallelFor(10, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
  ThreadPool::SetGlobalThreads(before);
  EXPECT_EQ(ThreadPool::Global().threads(), before);
}

}  // namespace
}  // namespace crius
