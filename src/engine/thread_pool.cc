#include "engine/thread_pool.h"

#include "common/timer.h"

namespace relcomp {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity,
                       obs::Histogram* queue_wait)
    : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      queue_wait_(queue_wait) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(Task task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_ready_.wait(lock, [this] {
      return shutdown_ || queue_.size() < queue_capacity_;
    });
    if (shutdown_) {
      return Status::FailedPrecondition("ThreadPool is shut down");
    }
    queue_.push_back(QueuedTask{std::move(task), StopwatchNs::Now()});
  }
  task_ready_.notify_one();
  return Status::OK();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock,
                 [this] { return queue_.empty() && active_workers_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  space_ready_.notify_all();
  for (std::thread& worker : workers_) {
    // A second Shutdown finds the workers joined already.
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutdown_ is set and the queue is drained.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_workers_;
    }
    space_ready_.notify_one();
    if (queue_wait_ != nullptr) {
      const uint64_t now = StopwatchNs::Now();
      queue_wait_->Record(now > task.enqueue_ns ? now - task.enqueue_ns : 0);
    }
    task.task(worker_id);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_workers_;
      if (queue_.empty() && active_workers_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace relcomp
