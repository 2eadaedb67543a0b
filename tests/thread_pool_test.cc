#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace privbasis {
namespace {

TEST(EffectiveThreadsTest, ExplicitRequestWins) {
  EXPECT_EQ(EffectiveThreads(5), 5u);
  EXPECT_EQ(EffectiveThreads(1), 1u);
  // Clamped to the global ceiling.
  EXPECT_EQ(EffectiveThreads(100000), kMaxThreads);
  // 0 resolves to the env/hardware default, always at least 1.
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_LE(EffectiveThreads(0), kMaxThreads);
}

TEST(ThreadPoolTest, ParallelForCoversEveryElementOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7, 4,
                   [&](size_t begin, size_t end, size_t) {
                     for (size_t i = begin; i < end; ++i) ++hits[i];
                   });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ShardDecompositionIndependentOfParallelism) {
  // Shard boundaries must depend only on (range, grain): record them at
  // parallelism 1 and 8 and compare.
  auto shards_at = [](size_t parallelism) {
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<std::tuple<size_t, size_t, size_t>> shards;
    pool.ParallelFor(3, 1003, 13, parallelism,
                     [&](size_t begin, size_t end, size_t shard) {
                       std::lock_guard<std::mutex> lock(mu);
                       shards.emplace_back(begin, end, shard);
                     });
    std::sort(shards.begin(), shards.end());
    return shards;
  };
  EXPECT_EQ(shards_at(1), shards_at(8));
}

TEST(ThreadPoolTest, SequentialParallelismRunsInShardOrder) {
  ThreadPool pool(2);
  std::vector<size_t> order;
  pool.ParallelFor(0, 100, 10, 1, [&](size_t, size_t, size_t shard) {
    order.push_back(shard);  // no lock needed: parallelism 1
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, RethrowsShardException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1, 4,
                       [&](size_t begin, size_t, size_t) {
                         if (begin == 57) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(0, 8, 1, 4, [&](size_t, size_t, size_t) {
    uint64_t local = 0;
    // Inner region on a worker thread: must complete inline without
    // deadlocking on the shared queue.
    pool.ParallelFor(0, 100, 10, 4,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t i = begin; i < end; ++i) local += i;
                     });
    total += local;
  });
  EXPECT_EQ(total.load(), 8u * (99u * 100u / 2));
}

TEST(ThreadPoolTest, RunAllExecutesEveryTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> ran(17);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ran.size(); ++i) {
    tasks.push_back([&ran, i] { ++ran[i]; });
  }
  pool.RunAll(tasks, 4);
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, StressManyRegions) {
  // Hammer one pool with many variously-shaped regions and verify the
  // reduction every time; catches lost shards, double execution, and
  // completion-signal races.
  ThreadPool pool(4);
  Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    const size_t n = 1 + rng.UniformInt(5000);
    const size_t grain = 1 + rng.UniformInt(200);
    const size_t parallelism = 1 + rng.UniformInt(8);
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, n, grain, parallelism,
                     [&](size_t begin, size_t end, size_t) {
                       uint64_t local = 0;
                       for (size_t i = begin; i < end; ++i) local += i + 1;
                       sum += local;
                     });
    ASSERT_EQ(sum.load(), static_cast<uint64_t>(n) * (n + 1) / 2)
        << "n=" << n << " grain=" << grain << " par=" << parallelism;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  uint64_t sum = 0;  // single-threaded by construction: no atomics needed
  pool.ParallelFor(0, 1000, 37, 8, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 999u * 1000u / 2);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, 1, 4, [&](size_t, size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, TrySubmitShedsBeyondBoundedDepth) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Park the only worker so queued tasks stay queued.
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      ++ran;
    });
    // Wait until the worker has dequeued the blocker.
    while (pool.QueueDepth() != 0) std::this_thread::yield();
    EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }, 2));
    EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }, 2));
    EXPECT_EQ(pool.QueueDepth(), 2u);
    // Queue at the bound: the third offer is shed, not queued.
    EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }, 2));
    EXPECT_EQ(pool.QueueDepth(), 2u);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
  // Accepted tasks keep the never-dropped guarantee (the destructor
  // drains the queue); the shed task never ran.
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, TrySubmitUnblockedQueueAccepts) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    // An idle pool drains as fast as we submit: a generous bound never
    // sheds, and every accepted task runs exactly once.
    EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }, 64));
  }
  while (ran.load() != 32) std::this_thread::yield();
}

}  // namespace
}  // namespace privbasis
