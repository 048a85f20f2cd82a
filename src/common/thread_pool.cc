#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "common/macros.h"

namespace wsk {

ThreadPool::ThreadPool(int num_threads, size_t queue_limit)
    : queue_limit_(queue_limit) {
  WSK_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_limit_ > 0 && queue_.size() >= queue_limit_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (const std::exception& e) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "[wsk] thread pool task threw: %s\n", e.what());
    } catch (...) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "[wsk] thread pool task threw a non-std exception\n");
    }
  }
}

ThreadPool& SharedExecutor() {
  // Never destroyed: a merge or a late helper may still be queued at exit,
  // and nothing may ever submit to a destroyed executor.
  static ThreadPool* const executor = new ThreadPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *executor;
}

namespace {

Status RunIndex(const std::function<Status(size_t)>& fn, size_t i) {
  try {
    return fn(i);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("parallel task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("parallel task threw a non-std exception");
  }
}

// Per-call state of one ParallelFor with helpers. Shared with the executor
// tasks, so a helper that starts after the call returned finds the cursor
// exhausted and touches nothing else: `fn` is read only for a claimed
// index, and the caller returns only after every claimed index finished.
struct ParallelForState {
  ParallelForState(size_t n, const std::function<Status(size_t)>* f)
      : fn(f), status(n) {}
  const std::function<Status(size_t)>* const fn;
  std::vector<Status> status;
  std::atomic<size_t> next{0};  // claim cursor
  std::mutex mu;
  std::condition_variable done_cv;
  size_t finished = 0;  // guarded by mu
};

// Claims indices until the cursor runs out.
void Drain(ParallelForState* s) {
  const size_t n = s->status.size();
  for (size_t i = s->next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = s->next.fetch_add(1, std::memory_order_relaxed)) {
    s->status[i] = RunIndex(*s->fn, i);
    std::lock_guard<std::mutex> lock(s->mu);
    if (++s->finished == n) s->done_cv.notify_all();
  }
}

}  // namespace

Status ParallelFor(size_t n, size_t max_helpers,
                   const std::function<Status(size_t)>& fn) {
  if (max_helpers == 0 || n <= 1) {
    for (size_t i = 0; i < n; ++i) WSK_RETURN_IF_ERROR(RunIndex(fn, i));
    return Status::Ok();
  }
  ThreadPool& executor = SharedExecutor();
  const size_t helpers = std::min({max_helpers, n - 1,
                                   static_cast<size_t>(executor.num_threads())});
  auto state = std::make_shared<ParallelForState>(n, &fn);
  for (size_t h = 0; h < helpers; ++h) {
    executor.Submit([state] { Drain(state.get()); });
  }
  Drain(state.get());
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->finished == n; });
  }
  for (Status& status : state->status) {
    if (!status.ok()) return std::move(status);
  }
  return Status::Ok();
}

}  // namespace wsk
