// Small work-stealing thread pool. It runs the serve daemon's per-connection
// request handling (Server::DispatchReady) and bench sweeps whose tasks own
// all their state (ext_robustness, one oracle per seed). A simulation run
// itself never uses it: an oracle and a scheduler belong to one thread.
//
// Design goals, in order:
//   1. Determinism. ParallelFor(n, fn) runs fn(0..n-1) with results written
//      into caller-owned index slots, so the outcome is independent of which
//      worker runs which index. Any shared state fn touches must be
//      thread-safe AND order-independent (pure memoization caches qualify:
//      every thread computes the same value for the same key).
//   2. Zero cost when off. With threads == 1 (the default) no workers exist
//      and ParallelFor degenerates to a plain sequential loop on the calling
//      thread -- bit-identical to the pre-threading code path.
//   3. No nested parallelism surprises. A ParallelFor issued from inside a
//      pool task runs inline on that worker; only the outermost call fans out.
//
// Work distribution: indices are dealt round-robin into per-worker deques;
// each worker drains its own deque front-first and steals from the back of
// sibling deques when empty. The calling thread participates as worker 0, so
// ParallelFor never blocks on a fully busy pool.
//
// The process-wide pool is sized by ThreadPool::SetGlobalThreads (the
// --threads flag of the tools and benches, 1..kMaxThreads); call it from main
// before any parallel section, not concurrently with one.

#ifndef SRC_UTIL_THREADPOOL_H_
#define SRC_UTIL_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace crius {

class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread;
  // clamped to >= 1. threads == 1 spawns no workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Largest --threads value the tools and benches accept.
  static constexpr int kMaxThreads = 4096;

  int threads() const { return threads_; }

  // Runs fn(i) for every i in [0, n). Blocks until all calls returned. The
  // calling thread executes tasks too. Concurrent/nested ParallelFor calls
  // run their loops inline (only one fan-out is active at a time).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // --- Process-wide pool ------------------------------------------------------
  static ThreadPool& Global();
  // Resizes the global pool (recreates it). Not safe concurrently with a
  // running ParallelFor; intended for main() / test setup.
  static void SetGlobalThreads(int threads);
  static int GlobalThreads();

 private:
  struct Deque {
    std::mutex mu;
    std::deque<size_t> indices;
  };

  void WorkerLoop(int worker);
  // Pops one index for `worker` (own deque first, then steal). Returns false
  // when the current batch has no queued work left.
  bool PopIndex(int worker, size_t* index, bool* stolen);
  void RunOne(size_t index);

  const int threads_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Deque>> deques_;  // one per participant, [0] = caller

  // Batch state: one ParallelFor at a time.
  std::mutex batch_mu_;                 // serializes ParallelFor callers
  std::mutex mu_;                       // guards fn_/generation_ wake-ups
  std::condition_variable work_cv_;     // workers wait for a new batch
  std::condition_variable done_cv_;     // caller waits for remaining_ == 0
  const std::function<void(size_t)>* fn_ = nullptr;
  uint64_t generation_ = 0;
  std::atomic<size_t> remaining_{0};
  bool shutdown_ = false;
};

}  // namespace crius

#endif  // SRC_UTIL_THREADPOOL_H_
