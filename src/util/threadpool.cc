#include "src/util/threadpool.h"

#include <memory>
#include <string>

#include "src/util/counters.h"
#include "src/util/trace.h"

namespace crius {

namespace {

// True while the current thread is executing a pool task; nested ParallelFor
// calls detect this and run inline instead of deadlocking on batch_mu_.
thread_local bool t_in_pool_task = false;

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;  // lazily created, default 1 thread

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  // The ParallelFor caller is the remaining participant.
  for (int w = 0; w + 1 < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::RunBatch(Batch* batch) {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  for (size_t i = batch->next.fetch_add(1); i < batch->n;
       i = batch->next.fetch_add(1)) {
    (*batch->fn)(i);
  }
  t_in_pool_task = was_in_task;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (batch_ != nullptr && generation_ != seen_generation);
    });
    if (shutdown_) {
      return;
    }
    seen_generation = generation_;
    // Joining under mu_ keeps the caller from retiring the batch while this
    // worker can still claim from it.
    Batch* batch = batch_;
    ++batch->workers;
    lock.unlock();
    RunBatch(batch);
    lock.lock();
    if (--batch->workers == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // Sequential fast path: a 1-thread pool, a single task, or a nested call
  // from inside a pool task all run inline on the calling thread.
  if (threads_ == 1 || n == 1 || t_in_pool_task) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::lock_guard<std::mutex> batch_lock(batch_mu_);
  CRIUS_TRACE_SPAN_ARGS("threadpool.parallel_for",
                        "{\"tasks\": " + std::to_string(n) +
                            ", \"threads\": " + std::to_string(threads_) + "}");
  CRIUS_COUNTER_INC("threadpool.parallel_sections");
  CRIUS_COUNTER_ADD("threadpool.tasks_executed", static_cast<int64_t>(n));

  Batch batch{&fn, n};
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++generation_;
  }
  work_cv_.notify_all();
  RunBatch(&batch);
  // Every index is claimed once the caller's loop ends; the batch is done
  // when no worker is still running one. Clearing batch_ under the same lock
  // keeps late-waking workers off it.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch.workers == 0; });
  batch_ = nullptr;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(1);
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool && g_global_pool->threads() == (threads < 1 ? 1 : threads)) {
    return;
  }
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace crius
