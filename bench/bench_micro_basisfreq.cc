// Microbenchmarks for Algorithm 1 (BasisFreq), validating the paper's
// running-time analysis O(w·|D| + w·3^ℓ): runtime should scale linearly
// in the width w and exponentially in the length ℓ, and the zeta-
// transform superset sum should beat the naive O(3^ℓ) enumeration. Also
// times basis construction (Algorithm 2) at a k=300 query's shape, and
// the pre-construction stages of Algorithm 3: the item exponential
// mechanism and pair counting.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "core/basis_freq.h"
#include "core/construct_basis.h"
#include "core/privbasis.h"
#include "data/synthetic.h"
#include "engine/dataset.h"

namespace privbasis {
namespace {

using ::privbasis::bench::MakeFrequentItemBasis;
using ::privbasis::bench::ScanExecutor;

TransactionDatabase MakeDb() {
  SyntheticProfile profile = SyntheticProfile::Kosarak(0.05);
  auto db = GenerateDataset(profile, 42);
  if (!db.ok()) std::abort();
  return std::move(db).value();
}

const TransactionDatabase& Db() {
  static TransactionDatabase db = MakeDb();
  return db;
}

void BM_BasisFreqWidth(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis =
      MakeFrequentItemBasis(db, static_cast<size_t>(state.range(0)), 6);
  Rng rng(1);
  const DirectCountExecutor exec = ScanExecutor(db);
  BasisFreqOptions options;
  options.exec = &exec;
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BasisFreqWidth)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity(benchmark::oN);

void BM_BasisFreqLength(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis =
      MakeFrequentItemBasis(db, 4, static_cast<size_t>(state.range(0)));
  Rng rng(1);
  const DirectCountExecutor exec = ScanExecutor(db);
  BasisFreqOptions options;
  options.exec = &exec;
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasisFreqLength)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

void BM_SupersetSum(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis =
      MakeFrequentItemBasis(db, 4, static_cast<size_t>(state.range(0)));
  Rng rng(1);
  const DirectCountExecutor exec = ScanExecutor(db);
  BasisFreqOptions options;
  options.exec = &exec;
  options.use_fast_superset_sum = state.range(1) != 0;
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SupersetSum)
    ->Args({10, 0})  // naive O(3^l)
    ->Args({10, 1})  // zeta O(l 2^l)
    ->Args({12, 0})
    ->Args({12, 1});

/// Sharded-scan scaling: same pipeline at increasing thread counts. The
/// output is bit-identical across args (see BasisFreqOptions::exec), so
/// this isolates pure scan parallelism.
void BM_BasisFreqThreads(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis = MakeFrequentItemBasis(db, 8, 8);
  Rng rng(1);
  const DirectCountExecutor exec =
      ScanExecutor(db, static_cast<size_t>(state.range(0)));
  BasisFreqOptions options;
  options.exec = &exec;
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasisFreqThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/// The frequent items F and pairs P a k=300 PrivBasis query hands to the
/// construction on this dataset (λ = 62, λ2 = 129), picked with the
/// mechanism's own noisy selection steps at ε = 1 and a fixed seed.
struct FrequentGraph {
  std::vector<Item> items;
  std::vector<Itemset> pairs;
};

FrequentGraph MakeK300Graph() {
  constexpr size_t kLambda = 62, kLambda2 = 129;
  const auto& db = Db();
  const PrivBasisOptions options;
  const double beta1 = options.alpha2 * static_cast<double>(kLambda) /
                       static_cast<double>(kLambda + kLambda2);
  const double beta2 = options.alpha2 - beta1;
  Rng rng(300);
  FrequentGraph graph;
  auto item_picks = GetFreqElements(db.ItemSupports(), kLambda, beta1, true,
                                    rng);
  if (!item_picks.ok()) std::abort();
  for (size_t idx : *item_picks) graph.items.push_back(static_cast<Item>(idx));
  const size_t m = graph.items.size();
  const std::vector<uint64_t> counts = CountPairSupports(db, graph.items);
  std::vector<std::pair<Item, Item>> index;
  std::vector<uint64_t> qualities;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      index.emplace_back(graph.items[i], graph.items[j]);
      qualities.push_back(counts[i * m + j]);
    }
  }
  auto pair_picks = GetFreqElements(qualities, kLambda2, beta2, true, rng);
  if (!pair_picks.ok()) std::abort();
  for (size_t idx : *pair_picks) {
    graph.pairs.push_back(Itemset{index[idx].first, index[idx].second});
  }
  return graph;
}

void BM_ConstructBasisSet(benchmark::State& state) {
  static const FrequentGraph graph = MakeK300Graph();
  for (auto _ : state) {
    auto basis_set = ConstructBasisSet(graph.items, graph.pairs);
    benchmark::DoNotOptimize(basis_set);
  }
}
BENCHMARK(BM_ConstructBasisSet)->Unit(benchmark::kMillisecond);

/// Step 2 of Algorithm 3 on this dataset: the λ = 24 items of a k=50
/// query, drawn from every item's support (grouping plus draws).
void BM_GetFreqElements(benchmark::State& state) {
  const auto& db = Db();
  Rng rng(50);
  for (auto _ : state) {
    auto picks = GetFreqElements(db.ItemSupports(), 24, 0.2, true, rng);
    benchmark::DoNotOptimize(picks);
  }
}
BENCHMARK(BM_GetFreqElements)->Unit(benchmark::kMicrosecond);

/// Step 3's exact pair supports through the dataset's count executor, at
/// the λ of a k=50 (λ = 24, bitmap path) and a k=300 (λ = 61, scan)
/// query; F is picked by the item mechanism as in a query.
void BM_PairSupports(benchmark::State& state) {
  static const std::shared_ptr<Dataset> dataset = Dataset::Borrow(Db());
  const auto exec = dataset->count_executor();
  const auto lambda = static_cast<size_t>(state.range(0));
  Rng rng(lambda);
  auto picks = GetFreqElements(Db().ItemSupports(), lambda, 0.2, true, rng);
  if (!picks.ok()) std::abort();
  const std::vector<Item> items(picks->begin(), picks->end());
  for (auto _ : state) {
    auto counts = exec->PairSupports(items, nullptr);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_PairSupports)->Arg(24)->Arg(61)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace privbasis

BENCHMARK_MAIN();
