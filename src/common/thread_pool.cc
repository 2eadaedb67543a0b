#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/env.h"

namespace privbasis {

namespace {

/// Depth of ParallelFor regions on this thread; inner regions run inline.
thread_local int g_parallel_depth = 0;

}  // namespace

size_t EffectiveThreads(size_t requested) {
  if (requested == 0) requested = static_cast<size_t>(NumThreads());
  return std::clamp<size_t>(requested, 1, kMaxThreads);
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(0);
    p->growable_ = true;
    return p;
  }();
  return *pool;
}

void ThreadPool::EnsureWorkers(size_t target) {
  if (!growable_) return;
  MutexLock lock(mu_);
  target = std::min(target, kMaxThreads - 1);
  while (workers_.size() < target && !stop_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, size_t grain, size_t parallelism,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t shards = (end - begin + grain - 1) / grain;
  parallelism = EffectiveThreads(parallelism);

  // Sequential fast path — also taken for nested regions, keeping total
  // thread fan-out bounded by the outermost region's parallelism.
  if (parallelism == 1 || shards == 1 || g_parallel_depth > 0) {
    ++g_parallel_depth;
    for (size_t s = 0; s < shards; ++s) {
      const size_t b = begin + s * grain;
      fn(b, std::min(end, b + grain), s);
    }
    --g_parallel_depth;
    return;
  }

  struct Region {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t begin, end, grain, shards;
    const std::function<void(size_t, size_t, size_t)>* fn;
    Mutex mu;
    CondVar cv;
    std::exception_ptr error PB_GUARDED_BY(mu);
  };
  auto region = std::make_shared<Region>();
  region->begin = begin;
  region->end = end;
  region->grain = grain;
  region->shards = shards;
  region->fn = &fn;

  auto drain = [region] {
    ++g_parallel_depth;
    for (;;) {
      const size_t s = region->next.fetch_add(1, std::memory_order_relaxed);
      if (s >= region->shards) break;
      const size_t b = region->begin + s * region->grain;
      try {
        (*region->fn)(b, std::min(region->end, b + region->grain), s);
      } catch (...) {
        MutexLock lock(region->mu);
        if (!region->error) region->error = std::current_exception();
      }
      if (region->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          region->shards) {
        MutexLock lock(region->mu);
        region->cv.NotifyAll();
      }
    }
    --g_parallel_depth;
  };

  const size_t helpers = std::min(parallelism - 1, shards - 1);
  EnsureWorkers(helpers);
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < std::min(helpers, workers_.size()); ++i) {
      queue_.push_back(drain);
    }
  }
  cv_.NotifyAll();

  drain();  // the caller always participates
  {
    MutexLock lock(region->mu);
    while (region->done.load(std::memory_order_acquire) != region->shards) {
      region->cv.Wait(region->mu);
    }
    if (region->error) std::rethrow_exception(region->error);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

bool ThreadPool::TrySubmit(std::function<void()> task,
                           size_t max_queue_depth) {
  {
    MutexLock lock(mu_);
    if (queue_.size() >= max_queue_depth) return false;
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::RunAll(const std::vector<std::function<void()>>& tasks,
                        size_t parallelism) {
  ParallelFor(0, tasks.size(), 1, parallelism,
              [&tasks](size_t, size_t, size_t shard) { tasks[shard](); });
}

}  // namespace privbasis
