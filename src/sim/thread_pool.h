#ifndef DURASSD_SIM_THREAD_POOL_H_
#define DURASSD_SIM_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace durassd {

/// Fixed-size worker pool (RocksDB-style: one mutex, one condvar, FIFO
/// queue, workers live for the pool's lifetime). This is the simulator's
/// only source of host parallelism (DESIGN.md §13): each job runs one
/// whole, disjoint simulation stack to completion.
///
/// Determinism note: the pool makes NO ordering promises between queued
/// jobs — callers that need determinism must make their jobs commutative
/// (jobs that touch disjoint stacks are, so which worker runs which job
/// never matters).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one job. Never blocks (unbounded queue).
  void Schedule(std::function<void()> fn);

  /// Blocks until the queue is empty and every worker is idle. Jobs
  /// scheduled *by jobs* before the queue drains are waited for too.
  void WaitIdle();

  /// Runs every thunk to completion, executing on the pool workers, and
  /// returns when all are done (Schedule-all + WaitIdle barrier).
  void RunBatch(const std::vector<std::function<void()>>& thunks);

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signalled when work arrives / stop
  std::condition_variable idle_cv_;   // signalled when a worker finishes
  std::deque<std::function<void()>> queue_;
  uint32_t active_ = 0;  // workers currently running a job
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace durassd

#endif  // DURASSD_SIM_THREAD_POOL_H_
