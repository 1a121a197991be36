#ifndef MBI_UTIL_THREAD_POOL_H_
#define MBI_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mbi {

/// Fixed-size worker pool used to run independent queries concurrently
/// (queries against a built SignatureTable are read-only, so a batch can be
/// answered in parallel without locking the index).
///
/// Lock discipline (proved by -Wthread-safety): `mutex_` guards the task
/// queue and the in-flight/shutdown state; tasks themselves always run with
/// the mutex released.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; pass std::thread::hardware_
  /// concurrency() for one per core).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task) MBI_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished.
  void Wait() MBI_EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs `count` index-addressed tasks across the pool and waits:
  /// `fn(i)` is invoked exactly once for each i in [0, count).
  ///
  /// The range is dispatched in chunks (a shared atomic cursor advanced
  /// several indices at a time, about eight grabs per worker) so small
  /// per-index bodies aren't dominated by atomic/queue traffic, while uneven
  /// per-index costs still balance dynamically. Must not be called from
  /// inside one of this pool's own tasks (the final wait would deadlock on
  /// the caller's unfinished task).
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn)
      MBI_EXCLUDES(mutex_);

 private:
  void WorkerLoop() MBI_EXCLUDES(mutex_);

  /// Immutable after the constructor returns (the vector is fully built
  /// before any caller can touch the pool), so unguarded.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ MBI_GUARDED_BY(mutex_);
  size_t in_flight_ MBI_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ MBI_GUARDED_BY(mutex_) = false;
};

}  // namespace mbi

#endif  // MBI_UTIL_THREAD_POOL_H_
