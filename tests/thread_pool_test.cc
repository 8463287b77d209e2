#include "engine/thread_pool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace relcomp {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4, 16);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count](size_t) { ++count; }).ok());
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WorkerIdsAreInRange) {
  ThreadPool pool(3, 8);
  std::mutex mutex;
  std::set<size_t> ids;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t worker_id) {
                      std::lock_guard<std::mutex> lock(mutex);
                      ids.insert(worker_id);
                    })
                    .ok());
  }
  pool.Wait();
  ASSERT_FALSE(ids.empty());
  for (size_t id : ids) EXPECT_LT(id, 3u);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressure) {
  // Queue of 2 with slow tasks: Submit must block rather than grow the
  // queue, and every task must still run exactly once.
  ThreadPool pool(2, 2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&count](size_t) {
                      std::this_thread::sleep_for(std::chrono::microseconds(200));
                      ++count;
                    })
                    .ok());
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0, 0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.queue_capacity(), 1u);
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.Submit([&count](size_t) { ++count; }).ok());
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  const Status status = pool.Submit([](size_t) {});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1, 64);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.Submit([&count](size_t) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                        ++count;
                      })
                      .ok());
    }
    // Destructor shuts down; queued tasks must still run.
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossRounds) {
  ThreadPool pool(4, 8);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pool.Submit([&count](size_t) { ++count; }).ok());
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, ShutdownWithInFlightAndQueuedWorkNeverHangs) {
  // Sweep-flight shape: a long-running in-flight task plus a queue of
  // follow-ups, shut down mid-stride. The pool contract is drain-then-join:
  // every accepted task runs exactly once, no task is dropped, and nothing
  // the tasks touch is freed under them (the counters outlive the pool).
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  {
    ThreadPool pool(2, 64);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.Submit([&started, &finished](size_t) {
                        ++started;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                        ++finished;
                      })
                      .ok());
    }
    pool.Shutdown();  // explicit, with most tasks still queued
    // Idempotent: the destructor's implicit Shutdown must be a no-op.
    pool.Shutdown();
    EXPECT_EQ(pool.Submit([](size_t) {}).code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(started.load(), 32);
  EXPECT_EQ(finished.load(), 32);
}

TEST(ThreadPoolTest, ConcurrentShutdownAndSubmitIsSafe) {
  // Races Shutdown against a producer thread mid-Submit: whatever interleaves,
  // every Submit either lands (and runs) or reports FailedPrecondition —
  // and the pool never hangs or double-runs a task. Run under TSan/ASan in
  // the sanitizer CI job.
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    auto pool = std::make_unique<ThreadPool>(2, 8);
    std::thread producer([&pool, &ran, &accepted] {
      for (int i = 0; i < 64; ++i) {
        if (pool->Submit([&ran](size_t) { ++ran; }).ok()) {
          ++accepted;
        } else {
          break;  // shutdown won the race
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    pool->Shutdown();
    producer.join();
    pool.reset();
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

}  // namespace
}  // namespace relcomp
