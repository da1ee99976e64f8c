// Small fork-join thread pool. It runs the serve daemon's per-connection
// request handling (Server::DispatchReady) and bench sweeps whose tasks own
// all their state (ext_robustness, one oracle per seed). A simulation run
// itself never uses it: an oracle and a scheduler belong to one thread.
//
// Design goals, in order:
//   1. Determinism. ParallelFor(n, fn) runs fn(0..n-1) with results written
//      into caller-owned index slots, so the outcome is independent of which
//      worker runs which index. Any shared state fn touches must be
//      thread-safe AND order-independent.
//   2. Zero cost when off. With threads == 1 (the default) no workers exist
//      and ParallelFor degenerates to a plain sequential loop on the calling
//      thread.
//   3. No nested parallelism surprises. A ParallelFor issued from inside a
//      pool task runs inline on that worker; only the outermost call fans out.
//
// Work distribution: the caller and every worker claim the next unclaimed
// index from one shared atomic counter until it passes n. The tasks are
// coarse (one socket connection, one bench seed), so claiming one at a time
// already balances the load. The calling thread participates, so ParallelFor
// never blocks on a fully busy pool.
//
// The process-wide pool is sized by ThreadPool::SetGlobalThreads (crius_serve's
// and the pool-running benches' --threads flag, 1..kMaxThreads); call it from
// main before any parallel section, not concurrently with one.

#ifndef SRC_UTIL_THREADPOOL_H_
#define SRC_UTIL_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
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

  // Largest --threads value crius_serve and the benches accept.
  static constexpr int kMaxThreads = 4096;

  int threads() const { return threads_; }

  // Runs fn(i) for every i in [0, n). Blocks until all calls returned. The
  // calling thread executes tasks too. Calls from different threads outside
  // the pool run one fan-out at a time; a nested call from inside a task runs
  // its loop inline.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // --- Process-wide pool ------------------------------------------------------
  static ThreadPool& Global();
  // Resizes the global pool (recreates it). Not safe concurrently with a
  // running ParallelFor; intended for main() / test setup.
  static void SetGlobalThreads(int threads);

 private:
  // One ParallelFor call; lives on the caller's stack.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  // next unclaimed index
    int workers = 0;              // workers inside RunBatch; guarded by mu_
  };

  void WorkerLoop();
  // Claims and runs indices of `batch` until none is left.
  static void RunBatch(Batch* batch);

  const int threads_;

  std::mutex batch_mu_;              // serializes ParallelFor callers
  std::mutex mu_;                    // guards batch_, generation_, shutdown_
  std::condition_variable work_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;  // caller waits for batch_->workers == 0
  Batch* batch_ = nullptr;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;  // after the state they use
};

}  // namespace crius

#endif  // SRC_UTIL_THREADPOOL_H_
