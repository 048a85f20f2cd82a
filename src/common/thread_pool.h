// Worker threads. A process holds two kinds: QueryService's request workers
// (a ThreadPool with an admission bound) and one shared executor, which runs
// the parallel parts of a query through ParallelFor (why-not candidates and
// KcR chunks, the paper's Section IV-C4 and Fig. 10; the shard fan-out) and
// background segment merges. Nothing builds threads per query.
#ifndef WSK_COMMON_THREAD_POOL_H_
#define WSK_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace wsk {

// Spawns `num_threads` (>= 1) workers at construction. Submit() enqueues a
// task; the destructor runs every queued task, then joins.
//
// Exception safety: the library is exception-free by contract, but a task
// that throws anyway (std::bad_alloc, a bug) must not take the process
// down via an escape from a worker thread. Tasks are run under a
// catch-all; the escape is counted (num_task_exceptions()) so a service
// layer can surface it through its error accounting.
//
// Backpressure: `queue_limit` bounds the number of *pending* tasks.
// TrySubmit() refuses (returns false) once the bound is reached — the
// admission-control primitive for the service layer. Submit() always
// enqueues regardless of the bound.
class ThreadPool {
 public:
  // `queue_limit` == 0 means unbounded.
  explicit ThreadPool(int num_threads, size_t queue_limit = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Enqueues unless the pending queue is at `queue_limit`; returns whether
  // the task was accepted.
  bool TrySubmit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_limit() const { return queue_limit_; }

  // Tasks currently waiting for a worker (diagnostics; racy by nature).
  size_t queue_depth() const;

  // Tasks whose exceptions were caught and swallowed by the pool.
  uint64_t num_task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when tasks arrive / stop
  std::deque<std::function<void()>> queue_;
  const size_t queue_limit_;
  bool stop_ = false;
  std::atomic<uint64_t> task_exceptions_{0};
  std::vector<std::thread> workers_;
};

// The process-wide executor: max(1, hardware_concurrency()) workers, made
// on first use and never destroyed.
ThreadPool& SharedExecutor();

// Runs fn(0), ..., fn(n - 1), each at most once. The caller claims and runs
// indices itself; up to `max_helpers` executor tasks (never more than the
// executor's workers or n - 1) claim from the same cursor. So with every
// executor worker busy the caller runs all n alone, and max_helpers == 0
// never touches the executor. Returns once every claimed index has
// finished, with the first failing Status in index order; an index above
// a failed one may be skipped. An exception escaping fn becomes Internal.
Status ParallelFor(size_t n, size_t max_helpers,
                   const std::function<Status(size_t)>& fn);

}  // namespace wsk

#endif  // WSK_COMMON_THREAD_POOL_H_
