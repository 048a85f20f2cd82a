#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

namespace wsk {
namespace {

// Occupies every shared-executor worker until Release(). The constructor
// returns once each worker runs one of its tasks; the queue is FIFO, so by
// then every task submitted before it has finished.
class ExecutorBlocker {
 public:
  ExecutorBlocker() : workers_(SharedExecutor().num_threads()) {
    for (int i = 0; i < workers_; ++i) {
      SharedExecutor().Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++started_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        ++exited_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_ == workers_; });
  }
  ~ExecutorBlocker() {
    Release();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return exited_ == workers_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int started_ = 0;
  int exited_ = 0;
  bool released_ = false;
};

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FuturesSeeEveryTaskFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    auto task = std::make_shared<std::packaged_task<void()>>([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
    futures.push_back(task->get_future());
    pool.Submit([task] { (*task)(); });
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 60; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
    }
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPoolTest, DestructionJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.Submit([&] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ThrowingTaskIsSwallowedAndCounted) {
  // One worker runs tasks in submission order, so once the last task has
  // run both throws have been caught and counted.
  ThreadPool pool(1);
  std::atomic<int> after{0};
  std::promise<void> last;
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([] { throw 42; });  // non-std exceptions are caught too
  pool.Submit([&] {
    after.fetch_add(1);
    last.set_value();
  });
  last.get_future().get();
  // The pool survives both throws: the worker keeps running later tasks
  // and the failures are surfaced through the counter.
  EXPECT_EQ(after.load(), 1);
  EXPECT_EQ(pool.num_task_exceptions(), 2u);
}

TEST(ThreadPoolTest, TrySubmitHonorsQueueLimit) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1, /*queue_limit=*/2);
    // Block the only worker so queued tasks cannot drain.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.Submit([gate, &ran] {
      gate.wait();
      ran.fetch_add(1);
    });
    // Wait until the worker has dequeued the blocker (queue drains to 0).
    while (pool.queue_depth() != 0) std::this_thread::yield();

    EXPECT_TRUE(
        pool.TrySubmit([gate, &ran] { gate.wait(); ran.fetch_add(1); }));
    EXPECT_TRUE(
        pool.TrySubmit([gate, &ran] { gate.wait(); ran.fetch_add(1); }));
    // Queue is now at its limit of 2: bounded submission is refused...
    EXPECT_FALSE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
    EXPECT_EQ(pool.queue_depth(), 2u);
    // ...while unbounded Submit still accepts.
    pool.Submit([gate, &ran] { gate.wait(); ran.fetch_add(1); });
    EXPECT_EQ(pool.queue_depth(), 3u);
    release.set_value();
  }
  EXPECT_EQ(ran.load(), 4);  // everything accepted eventually ran
}

TEST(ThreadPoolTest, TrySubmitUnlimitedWhenNoQueueLimit) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // queue_limit = 0: unbounded
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(pool.TrySubmit([gate, &ran] {
        gate.wait();
        ran.fetch_add(1);
      }));
    }
    release.set_value();
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, SharedExecutorIsOnePoolSizedByCores) {
  ThreadPool& executor = SharedExecutor();
  EXPECT_EQ(&executor, &SharedExecutor());
  EXPECT_EQ(executor.num_threads(),
            static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

// Caller-runs: with every executor worker blocked the caller runs all n
// indices itself, each exactly once, and returns without waiting for a
// helper to start.
TEST(ParallelForTest, CallerRunsEveryIndexWhenTheExecutorIsBusy) {
  ExecutorBlocker blocker;
  constexpr size_t kN = 100;
  std::vector<std::atomic<int>> runs(kN);
  std::atomic<int> off_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  const Status status = ParallelFor(kN, 8, [&](size_t i) {
    runs[i].fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ParallelForTest, RunsEveryIndexOnceWithHelpers) {
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> runs(kN);
  const Status status = ParallelFor(kN, 64, [&](size_t i) {
    runs[i].fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

// A helper dequeued after ParallelFor returned finds the cursor exhausted
// and touches neither `fn` nor what it captured (ASan reports a touch of
// the freed vector).
TEST(ParallelForTest, LateHelpersTouchNoFreedState) {
  {
    ExecutorBlocker blocker;
    auto values = std::make_unique<std::vector<int>>(4, 0);
    std::vector<int>* v = values.get();
    const Status status = ParallelFor(4, 3, [v](size_t i) {
      (*v)[i] = 1;
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(*values, std::vector<int>(4, 1));
    values.reset();
  }  // the queued helpers run now
  ExecutorBlocker drained;  // returns once every helper has finished
}

TEST(ParallelForTest, ReturnsTheFirstFailureInIndexOrder) {
  for (size_t helpers : {size_t{0}, size_t{3}}) {
    constexpr size_t kN = 64;
    std::vector<std::atomic<int>> runs(kN);
    const Status status = ParallelFor(kN, helpers, [&](size_t i) {
      runs[i].fetch_add(1);
      if (i == 17 || i == 40) return Status::NotFound(std::to_string(i));
      return Status::Ok();
    });
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << helpers;
    EXPECT_EQ(status.message(), "17") << helpers;
    // Every index below the failure ran, once.
    for (size_t i = 0; i <= 17; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
    for (size_t i = 18; i < kN; ++i) EXPECT_LE(runs[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, AThrowingFnYieldsInternal) {
  for (size_t helpers : {size_t{0}, size_t{3}}) {
    const Status std_throw = ParallelFor(16, helpers, [](size_t i) {
      if (i == 5) throw std::runtime_error("boom");
      return Status::Ok();
    });
    EXPECT_EQ(std_throw.code(), StatusCode::kInternal) << helpers;
    EXPECT_NE(std_throw.message().find("boom"), std::string::npos);
    const Status other_throw = ParallelFor(16, helpers, [](size_t i) {
      if (i == 9) throw 42;
      return Status::Ok();
    });
    EXPECT_EQ(other_throw.code(), StatusCode::kInternal) << helpers;
  }
  // The executor's workers survive: a later call still completes.
  EXPECT_TRUE(ParallelFor(8, 3, [](size_t) { return Status::Ok(); }).ok());
}

}  // namespace
}  // namespace wsk
