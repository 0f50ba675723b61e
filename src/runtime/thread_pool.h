// Fixed-size thread pool: a work queue drained by long-lived workers, with
// std::future-based completion. No external dependencies.
//
// It has two callers in the library. `TrialRunner::Map` (trial_runner.h)
// fans out every batch of independent jobs — bench trials and the copies of
// a median-amplified run (core/median.h) — and blocks for all of them. The
// service (service/service.h) submits its shard drains fire-and-forget. CI
// fails on any other Submit under src/. The pool deliberately offers only
// task submission with a future — no work stealing, no priorities.
// Determinism is the callers' responsibility: a task must compute a result
// that depends only on its own inputs, never on scheduling order (see the
// TrialRunner contract).
//
// Nesting caveat: waiting on pool futures from inside a pool task can
// deadlock (the waiting task occupies the worker the waited-on task needs).
// All fan-out in this repository happens from the main thread.

#ifndef CYCLESTREAM_RUNTIME_THREAD_POOL_H_
#define CYCLESTREAM_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cyclestream {
namespace runtime {

/// Number of hardware threads, always >= 1 (0 from the runtime maps to 1).
int HardwareThreads();

/// A fixed-size pool of worker threads sharing one FIFO work queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`; the future completes when the task returns (or
  /// rethrows the task's exception on get()).
  std::future<void> Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;  // guarded by mu_
  bool shutdown_ = false;                         // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace runtime
}  // namespace cyclestream

#endif  // CYCLESTREAM_RUNTIME_THREAD_POOL_H_
