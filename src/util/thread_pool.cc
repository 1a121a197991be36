#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/macros.h"

namespace mbi {

ThreadPool::ThreadPool(size_t num_threads) {
  MBI_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  MBI_CHECK(task != nullptr);
  {
    MutexLock lock(&mutex_);
    MBI_CHECK_MSG(!shutting_down_, "submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  while (in_flight_ != 0) all_done_.Wait(&mutex_);
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  // ~8 grabs per worker, so dynamic balancing survives uneven costs but
  // one-index-per-grab lock traffic never dominates tiny bodies.
  const size_t chunk = std::max<size_t>(1, count / (workers_.size() * 8));
  // Shard by an atomic cursor so uneven task costs balance dynamically; each
  // grab claims `chunk` consecutive indices. The cursor lives on this frame:
  // Wait() below outlives every worker lambda, and keeping it off the heap
  // keeps the multi-target query path allocation-free.
  std::atomic<size_t> cursor{0};
  const size_t shards = std::min((count + chunk - 1) / chunk, workers_.size());
  for (size_t s = 0; s < shards; ++s) {
    Submit([&cursor, count, chunk, &fn] {
      while (true) {
        const size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) break;
        const size_t end = std::min(count, begin + chunk);
        for (size_t index = begin; index < end; ++index) fn(index);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutting_down_ && tasks_.empty()) work_available_.Wait(&mutex_);
      if (tasks_.empty()) return;  // Shutting down and drained.
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace mbi
