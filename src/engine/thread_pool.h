#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace relcomp {

/// \brief Fixed-size worker pool with a bounded FIFO work queue.
///
/// Tasks receive the id of the worker running them (0 .. num_threads-1) so
/// callers can keep per-worker state — the QueryEngine uses this to route
/// each task to that worker's private estimator replica, honoring the
/// "one estimator instance per thread" contract of Estimator.
///
/// Submit() applies backpressure: it blocks while the queue holds
/// `queue_capacity` pending tasks, so an unbounded producer cannot exhaust
/// memory. Wait() blocks until the queue is empty *and* every worker is idle.
class ThreadPool {
 public:
  using Task = std::function<void(size_t worker_id)>;

  /// Spawns `num_threads` workers (clamped to >= 1). `queue_wait` (optional,
  /// not owned, must outlive the pool) receives each task's enqueue-to-
  /// dequeue wait in nanoseconds — the engine wires it to
  /// engine_stage_latency_ns{stage="queue_wait"}.
  ThreadPool(size_t num_threads, size_t queue_capacity = 1024,
             obs::Histogram* queue_wait = nullptr);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; blocks while the queue is full. Returns
  /// FailedPrecondition after Shutdown().
  Status Submit(Task task);

  /// Blocks until all submitted tasks have finished.
  void Wait();

  /// Stops accepting tasks, drains the queue, and joins the workers.
  /// Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }

 private:
  /// Task plus its Submit() timestamp, so dequeue can record queue wait.
  struct QueuedTask {
    Task task;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop(size_t worker_id);

  const size_t queue_capacity_;
  obs::Histogram* const queue_wait_;  ///< may be nullptr (no recording)
  std::mutex mutex_;
  std::condition_variable task_ready_;   ///< queue gained a task / shutdown
  std::condition_variable space_ready_;  ///< queue lost a task
  std::condition_variable all_idle_;     ///< queue empty and no task running
  std::deque<QueuedTask> queue_;
  size_t active_workers_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace relcomp
