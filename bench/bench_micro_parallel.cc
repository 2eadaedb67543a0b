// Microbenchmarks for the parallel counting engine: BasisFreq scan
// throughput vs. thread count, hybrid bitmap vs. galloping intersection
// throughput, batch support queries, and parallel index construction.
//
// Speedup expectations: the scan and index build scale with physical
// cores; the bitmap backend beats galloping on dense itemsets regardless
// of thread count.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/basis_freq.h"
#include "data/synthetic.h"
#include "data/vertical_index.h"

namespace privbasis {
namespace {

using ::privbasis::bench::DenseQueries;
using ::privbasis::bench::MakeFrequentItemBasis;
using ::privbasis::bench::ScanExecutor;

const TransactionDatabase& Kosarak() {
  static TransactionDatabase db = [] {
    auto r = GenerateDataset(SyntheticProfile::Kosarak(0.05), 42);
    if (!r.ok()) std::abort();
    return std::move(r).value();
  }();
  return db;
}

const TransactionDatabase& Mushroom() {
  static TransactionDatabase db = [] {
    auto r = GenerateDataset(SyntheticProfile::Mushroom(1.0), 42);
    if (!r.ok()) std::abort();
    return std::move(r).value();
  }();
  return db;
}

/// Sharded scan throughput: the exact BasisFreq pipeline, zero noise so
/// the counting loop dominates.
void BM_ScanThreads(benchmark::State& state) {
  const auto& db = Kosarak();
  BasisSet basis = MakeFrequentItemBasis(db, 8, 8);
  Rng rng(1);
  const DirectCountExecutor exec =
      ScanExecutor(db, static_cast<size_t>(state.range(0)));
  BasisFreqOptions options;
  options.inject_noise = false;
  options.exec = &exec;
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.NumTransactions()));
}
BENCHMARK(BM_ScanThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Intersection throughput, bitmap backend vs. pure galloping: arg is the
/// density threshold in 1/1024 units (1024 disables bitmaps).
void BM_IntersectBackend(benchmark::State& state) {
  const auto& db = Mushroom();
  VerticalIndex::Options options;
  options.density_threshold = static_cast<double>(state.range(0)) / 1024.0;
  VerticalIndex index(db, options);
  auto queries = DenseQueries(db, 512, 4, 7);
  for (auto _ : state) {
    uint64_t sink = 0;
    for (const auto& q : queries) sink += index.SupportOf(q);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_IntersectBackend)->Arg(1024)->Arg(16)->Arg(0);

/// Kernel-level A/B: the same dense-intersection workload pinned to the
/// scalar (arg 0) vs AVX2 (arg 1) kernels. Supports are identical; only
/// the time differs.
void BM_IntersectSimdLevel(benchmark::State& state) {
  const auto& db = Mushroom();
  VerticalIndex index(db, {.density_threshold = 1.0 / 64.0});
  auto queries = DenseQueries(db, 512, 4, 7);
  const simd::Level level =
      state.range(0) ? simd::Level::kAvx2 : simd::Level::kScalar;
  if (level == simd::Level::kAvx2 && !simd::Avx2Supported()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const simd::Level prev = simd::SetLevel(level);
  for (auto _ : state) {
    uint64_t sink = 0;
    for (const auto& q : queries) sink += index.SupportOf(q);
    benchmark::DoNotOptimize(sink);
  }
  simd::SetLevel(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel(simd::LevelName(level));
}
BENCHMARK(BM_IntersectSimdLevel)->Arg(0)->Arg(1);

/// Batch support counting across the pool.
void BM_SupportOfManyThreads(benchmark::State& state) {
  const auto& db = Kosarak();
  VerticalIndex index(db);
  auto queries = DenseQueries(db, 2048, 3, 11);
  std::vector<uint64_t> out(queries.size());
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    index.SupportOfMany(queries, std::span<uint64_t>(out), threads);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SupportOfManyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/// Parallel index construction (CSR fill + bitmap build).
void BM_IndexBuildThreads(benchmark::State& state) {
  const auto& db = Kosarak();
  VerticalIndex::Options options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    VerticalIndex index(db, options);
    benchmark::DoNotOptimize(index.NumDenseItems());
  }
}
BENCHMARK(BM_IndexBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace privbasis

BENCHMARK_MAIN();
