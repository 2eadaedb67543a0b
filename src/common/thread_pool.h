// Fixed-size thread pool behind the parallel counting engine.
//
// Design constraints, in order:
//   1. Determinism. Work is decomposed into *shards* whose boundaries
//      depend only on (range, grain) — never on the thread count — so a
//      shard-indexed reduction produces bit-identical results at any
//      parallelism, including 1.
//   2. No work stealing, no task dependencies: every parallel region is a
//      flat shard set drained via one atomic cursor. The calling thread
//      always participates, so a pool with zero workers degrades to the
//      plain sequential loop (and `PRIVBASIS_THREADS=1` is exactly the
//      pre-parallel code path).
//   3. Reentrancy. A shard may itself call ParallelFor; the inner call
//      runs inline on the worker to bound thread fan-out.
#ifndef PRIVBASIS_COMMON_THREAD_POOL_H_
#define PRIVBASIS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace privbasis {

/// Clamp ceiling for every thread-count knob.
inline constexpr size_t kMaxThreads = 64;

/// Resolves a thread-count request: `requested` if nonzero, else the
/// PRIVBASIS_THREADS env knob, else std::thread::hardware_concurrency().
/// Always in [1, kMaxThreads].
size_t EffectiveThreads(size_t requested);

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is valid: every parallel
  /// region then runs inline on the caller).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool. Grows its worker set on demand up to
  /// kMaxThreads − 1, so the first caller does not fix the ceiling.
  static ThreadPool& Global();

  /// Invokes fn(shard_begin, shard_end, shard_index) for every shard of
  /// [begin, end) with at most `grain` elements per shard. Shard
  /// decomposition depends only on (begin, end, grain). At most
  /// `parallelism` (0 = EffectiveThreads(0)) shards run concurrently;
  /// parallelism 1 executes shards in index order on the caller. Blocks
  /// until all shards finish; rethrows the first shard exception.
  void ParallelFor(size_t begin, size_t end, size_t grain, size_t parallelism,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  /// Runs every task, at most `parallelism` concurrently; blocks until all
  /// complete. Task index order is the sequential (parallelism 1) order.
  void RunAll(const std::vector<std::function<void()>>& tasks,
              size_t parallelism = 0);

  /// Enqueues one detached task (the query server's connection handoff).
  /// Unlike the fork-join entry points this does not block; the task runs
  /// whenever a worker frees up. Requires a pool with ≥ 1 worker (a
  /// zero-worker pool has nothing to ever run it). Tasks still queued at
  /// destruction are executed before the workers join — a submitted task
  /// is never silently dropped.
  void Submit(std::function<void()> task);

  /// Bounded-queue Submit: enqueues only when fewer than
  /// `max_queue_depth` detached tasks are already waiting, else returns
  /// false without enqueueing — the caller sheds the work immediately
  /// instead of building an unbounded backlog behind a saturated pool.
  /// An accepted task has the same never-dropped guarantee as Submit.
  bool TrySubmit(std::function<void()> task, size_t max_queue_depth);

  /// Detached tasks currently queued (not yet picked up by a worker).
  /// A load signal for admission control; instantaneous, not a fence.
  size_t QueueDepth() const;

 private:
  void WorkerLoop() PB_EXCLUDES(mu_);
  void EnsureWorkers(size_t target) PB_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ PB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ PB_GUARDED_BY(mu_);
  /// Set once by Global() before the pool is shared; immutable after.
  bool growable_ = false;
  bool stop_ PB_GUARDED_BY(mu_) = false;
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_THREAD_POOL_H_
