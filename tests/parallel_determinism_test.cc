// The parallel counting engine's core contract: thread count is a pure
// performance knob. Every path — the sharded BasisFreq scan, parallel
// top-k mining, and the hybrid index — must produce bit-identical output
// at 1, 2, and 8 threads. FP-Growth's thread-count determinism, plain and
// truncated, is pinned in fptree_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/basis_freq.h"
#include "data/synthetic.h"
#include "data/vertical_index.h"
#include "fim/fpgrowth.h"
#include "fim/topk.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::bench::MakeFrequentItemBasis;
using ::privbasis::testing::MakeRandomDb;
using ::privbasis::bench::ScanExecutor;

/// A database large enough that the sharded scan and parallel index
/// construction actually engage (they fall back to one shard below a few
/// thousand transactions).
const TransactionDatabase& BigDb() {
  static TransactionDatabase db = [] {
    auto r = GenerateDataset(SyntheticProfile::Mushroom(0.8), 42);
    if (!r.ok()) std::abort();
    return std::move(r).value();
  }();
  return db;
}

TEST(ParallelDeterminismTest, BasisFreqBitIdenticalAcrossThreadCounts) {
  const auto& db = BigDb();
  ASSERT_GE(db.NumTransactions(), 4096u) << "sharded path would not engage";
  BasisSet basis = MakeFrequentItemBasis(db, 6, 6);
  std::vector<BasisFreqResult> results;
  for (size_t threads : {1u, 2u, 8u}) {
    Rng rng(7);  // fresh engine per run: identical noise draws
    const DirectCountExecutor exec = ScanExecutor(db, threads);
    BasisFreqOptions options;
    options.exec = &exec;
    auto result = BasisFreq(db, basis, 80, 1.0, rng, nullptr, options);
    ASSERT_TRUE(result.ok());
    results.push_back(std::move(result).value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].num_candidates, results[0].num_candidates);
    ASSERT_EQ(results[i].topk.size(), results[0].topk.size());
    for (size_t j = 0; j < results[0].topk.size(); ++j) {
      EXPECT_EQ(results[i].topk[j].items, results[0].topk[j].items);
      // Bit-identical noisy counts, not approximately equal: the integer
      // shard reduction replays the sequential float accumulation.
      EXPECT_EQ(results[i].topk[j].noisy_count,
                results[0].topk[j].noisy_count);
    }
  }
}

TEST(ParallelDeterminismTest, TopKIdenticalAcrossThreadCounts) {
  const auto& db = BigDb();
  std::vector<TopKResult> results;
  for (size_t threads : {1u, 2u, 8u}) {
    auto result = MineTopK(db, 150, 0, threads);
    ASSERT_TRUE(result.ok());
    results.push_back(std::move(result).value());
  }
  EXPECT_EQ(results[0].itemsets.size(), 150u);
  EXPECT_EQ(results[0].kth_support, results[1].kth_support);
  EXPECT_EQ(results[0].kth_support, results[2].kth_support);
  EXPECT_EQ(results[0].itemsets, results[1].itemsets);
  EXPECT_EQ(results[0].itemsets, results[2].itemsets);
}

// Bitmap-vs-galloping equivalence: the hybrid backend is a pure
// representation change, so every support query must agree with the
// list-only index and the full-scan reference over randomized databases.
class BitmapEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitmapEquivalenceTest, AgreesWithGallopingAndScan) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = GetParam(), .num_transactions = 120, .universe = 16,
       .item_prob = 0.4});
  VerticalIndex hybrid(db);  // env-default density threshold
  VerticalIndex all_dense(db, {.density_threshold = 0.0});
  VerticalIndex all_sparse(db, {.density_threshold = 1.0});
  EXPECT_EQ(all_sparse.NumDenseItems(), 0u);
  EXPECT_GT(all_dense.NumDenseItems(), 0u);

  Rng rng(GetParam() + 500);
  std::vector<Itemset> queries;
  for (int trial = 0; trial < 80; ++trial) {
    size_t size = 1 + rng.UniformInt(5);
    std::vector<Item> items;
    for (size_t i = 0; i < size; ++i) {
      items.push_back(static_cast<Item>(rng.UniformInt(18)));  // incl. OOU
    }
    queries.push_back(Itemset(std::move(items)));
  }
  for (const auto& q : queries) {
    const uint64_t expected = db.SupportOf(q);
    EXPECT_EQ(hybrid.SupportOf(q), expected) << q.ToString();
    EXPECT_EQ(all_dense.SupportOf(q), expected) << q.ToString();
    EXPECT_EQ(all_sparse.SupportOf(q), expected) << q.ToString();
  }
  // Batch API: same answers in query order, at several thread counts.
  for (size_t threads : {1u, 4u}) {
    std::vector<uint64_t> batch = hybrid.SupportOfMany(queries, threads);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i], db.SupportOf(queries[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(BitmapEquivalenceTest, PairPathsAgreeAcrossBackends) {
  TransactionDatabase db = MakeRandomDb({.seed = 77, .universe = 12,
                                         .item_prob = 0.5});
  VerticalIndex all_dense(db, {.density_threshold = 0.0});
  VerticalIndex all_sparse(db, {.density_threshold = 1.0});
  // Mixed: densify only the most frequent items.
  VerticalIndex mixed(db, {.density_threshold = 0.4});
  for (Item a = 0; a < 12; ++a) {
    for (Item b = a; b < 12; ++b) {
      const uint64_t expected = all_sparse.SupportOfPair(a, b);
      EXPECT_EQ(all_dense.SupportOfPair(a, b), expected);
      EXPECT_EQ(mixed.SupportOfPair(a, b), expected);
    }
  }
}

// SIMD-level equivalence: PRIVBASIS_SIMD is a pure performance knob like
// the thread count. Supports, noisy BasisFreq outputs, and mined pattern
// sets must be identical at scalar and AVX2 at every thread count.
TEST(ParallelDeterminismTest, SimdLevelsProduceIdenticalResults) {
  const auto& db = BigDb();
  BasisSet basis = MakeFrequentItemBasis(db, 6, 6);
  auto queries = [&] {
    Rng rng(31);
    std::vector<Itemset> out;
    for (int trial = 0; trial < 200; ++trial) {
      size_t size = 1 + rng.UniformInt(5);
      std::vector<Item> items;
      for (size_t i = 0; i < size; ++i) {
        items.push_back(static_cast<Item>(rng.UniformInt(db.UniverseSize())));
      }
      out.push_back(Itemset(std::move(items)));
    }
    return out;
  }();

  std::vector<std::vector<uint64_t>> supports;
  std::vector<BasisFreqResult> bf_results;
  std::vector<MiningResult> mined;
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const simd::Level prev = simd::SetLevel(level);
    for (size_t threads : {1u, 4u}) {
      VerticalIndex index(db, {.density_threshold = 0.05,
                               .num_threads = threads});
      supports.push_back(index.SupportOfMany(queries, threads));

      Rng rng(7);
      const DirectCountExecutor exec = ScanExecutor(db, threads);
      BasisFreqOptions options;
      options.exec = &exec;
      auto bf = BasisFreq(db, basis, 80, 1.0, rng, nullptr, options);
      ASSERT_TRUE(bf.ok());
      bf_results.push_back(std::move(bf).value());

      MiningOptions mining;
      mining.min_support = db.NumTransactions() / 3;
      mining.num_threads = threads;
      auto fp = MineFpGrowth(db, mining);
      ASSERT_TRUE(fp.ok());
      mined.push_back(std::move(fp).value());
    }
    simd::SetLevel(prev);
  }
  for (size_t i = 1; i < supports.size(); ++i) {
    EXPECT_EQ(supports[i], supports[0]);
    EXPECT_EQ(mined[i].itemsets, mined[0].itemsets);
    ASSERT_EQ(bf_results[i].topk.size(), bf_results[0].topk.size());
    for (size_t j = 0; j < bf_results[0].topk.size(); ++j) {
      EXPECT_EQ(bf_results[i].topk[j].items, bf_results[0].topk[j].items);
      EXPECT_EQ(bf_results[i].topk[j].noisy_count,
                bf_results[0].topk[j].noisy_count);
    }
  }
}

TEST(ParallelDeterminismTest, IndexConstructionIdenticalAcrossThreadCounts) {
  const auto& db = BigDb();
  ASSERT_GE(db.NumTransactions(), 2048u) << "parallel build would not engage";
  VerticalIndex seq(db, {.num_threads = 1});
  VerticalIndex par(db, {.num_threads = 8});
  for (Item it = 0; it < db.UniverseSize(); ++it) {
    auto ls = seq.TidList(it);
    auto lp = par.TidList(it);
    ASSERT_EQ(ls.size(), lp.size()) << "item " << it;
    ASSERT_TRUE(std::equal(ls.begin(), ls.end(), lp.begin()))
        << "item " << it;
  }
}

}  // namespace
}  // namespace privbasis
