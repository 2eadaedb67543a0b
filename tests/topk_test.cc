#include "fim/topk.h"

#include <gtest/gtest.h>

#include "oracles.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MineBruteForce;
using ::privbasis::testing::MakeRandomDb;

// Reference: mine everything (capped length for brute force), sort
// canonically, take the prefix.
std::vector<FrequentItemset> ReferenceTopK(const TransactionDatabase& db,
                                           size_t k, size_t max_length) {
  auto all = MineBruteForce(db, {.min_support = 1, .max_length = max_length});
  EXPECT_TRUE(all.ok());
  auto itemsets = all->itemsets;
  if (itemsets.size() > k) itemsets.resize(k);
  return itemsets;
}

class TopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKPropertyTest, MatchesBruteForcePrefix) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = GetParam(), .num_transactions = 60, .universe = 10,
       .item_prob = 0.4});
  for (size_t k : {1, 5, 20, 100}) {
    auto topk = MineTopK(db, k, /*max_length=*/4);
    ASSERT_TRUE(topk.ok());
    auto expected = ReferenceTopK(db, k, 4);
    EXPECT_EQ(topk->itemsets, expected) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(TopKTest, KthSupportMatchesLastItemset) {
  TransactionDatabase db = MakeRandomDb({.seed = 3});
  auto topk = MineTopK(db, 15);
  ASSERT_TRUE(topk.ok());
  ASSERT_FALSE(topk->itemsets.empty());
  EXPECT_EQ(topk->kth_support, topk->itemsets.back().support);
}

TEST(TopKTest, FewerItemsetsThanK) {
  TransactionDatabase db = MakeDb({{0}, {0, 1}});
  auto topk = MineTopK(db, 1000);
  ASSERT_TRUE(topk.ok());
  // Only {0}, {1}, {0,1} exist.
  EXPECT_EQ(topk->itemsets.size(), 3u);
}

TEST(TopKTest, RejectsZeroK) {
  TransactionDatabase db = MakeDb({{0}});
  EXPECT_FALSE(MineTopK(db, 0).ok());
}

TEST(TopKTest, MaxLengthCap) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}});
  auto topk = MineTopK(db, 100, /*max_length=*/2);
  ASSERT_TRUE(topk.ok());
  for (const auto& fi : topk->itemsets) {
    EXPECT_LE(fi.items.size(), 2u);
  }
  // 3 singletons + 3 pairs.
  EXPECT_EQ(topk->itemsets.size(), 6u);
}

TEST(TopKTest, DeterministicTieBreak) {
  // All items tie: canonical order prefers shorter, then lexicographic.
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1, 2}});
  auto topk = MineTopK(db, 4);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->itemsets.size(), 4u);
  EXPECT_EQ(topk->itemsets[0].items, Itemset({0}));
  EXPECT_EQ(topk->itemsets[1].items, Itemset({1}));
  EXPECT_EQ(topk->itemsets[2].items, Itemset({2}));
  EXPECT_EQ(topk->itemsets[3].items, Itemset({0, 1}));
}

TEST(TopKTest, DescendingSupports) {
  TransactionDatabase db = MakeRandomDb({.seed = 8, .universe = 12});
  auto topk = MineTopK(db, 50);
  ASSERT_TRUE(topk.ok());
  for (size_t i = 1; i < topk->itemsets.size(); ++i) {
    EXPECT_GE(topk->itemsets[i - 1].support, topk->itemsets[i].support);
  }
}

TEST(TopKTest, SupportsAreExact) {
  TransactionDatabase db = MakeRandomDb({.seed = 21, .universe = 12});
  auto topk = MineTopK(db, 30);
  ASSERT_TRUE(topk.ok());
  for (const auto& fi : topk->itemsets) {
    EXPECT_EQ(fi.support, db.SupportOf(fi.items));
  }
}

TEST(TopKTest, DenseDataDoesNotExplode) {
  // 40 near-constant attributes: full mining at low support would emit
  // ~2^40 patterns; top-k must stay output-bounded.
  TransactionDatabase::Builder builder;
  Rng rng(5);
  for (int t = 0; t < 300; ++t) {
    std::vector<Item> txn;
    for (Item i = 0; i < 40; ++i) {
      if (rng.Bernoulli(0.9)) txn.push_back(i);
    }
    builder.AddTransaction(txn);
  }
  auto db = std::move(builder).Build();
  ASSERT_TRUE(db.ok());
  auto topk = MineTopK(*db, 200);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->itemsets.size(), 200u);
  // Top patterns on dense data are high-order combinations.
  EXPECT_GT(topk->itemsets.back().items.size(), 1u);
}

TEST(ComputeTopKStatsTest, CountsUniqueItemsPairsTriples) {
  std::vector<FrequentItemset> topk{
      {Itemset({0}), 10}, {Itemset({1}), 9},      {Itemset({0, 1}), 8},
      {Itemset({0, 2}), 7}, {Itemset({0, 1, 2}), 6}, {Itemset({3, 4, 5}), 5},
  };
  TopKStats stats = ComputeTopKStats(topk);
  EXPECT_EQ(stats.lambda, 6u);   // items 0..5
  EXPECT_EQ(stats.lambda2, 2u);  // two pairs
  EXPECT_EQ(stats.lambda3, 2u);  // two triples
  EXPECT_EQ(stats.fk_count, 5u);
}

TEST(ComputeTopKStatsTest, EmptyInput) {
  TopKStats stats = ComputeTopKStats({});
  EXPECT_EQ(stats.lambda, 0u);
  EXPECT_EQ(stats.fk_count, 0u);
}

}  // namespace
}  // namespace privbasis
