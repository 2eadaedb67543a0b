#include <gtest/gtest.h>

#include "fim/fpgrowth.h"
#include "oracles.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MineBruteForce;
using ::privbasis::testing::MakeRandomDb;

TEST(BruteForceTest, TextbookExample) {
  // Classic market-basket example with obvious frequent itemsets.
  TransactionDatabase db = MakeDb({
      {0, 1, 2},
      {0, 1},
      {0, 2},
      {1, 2},
      {0, 1, 2},
  });
  MiningOptions options{.min_support = 3, .max_length = 3};
  auto result = MineBruteForce(db, options);
  ASSERT_TRUE(result.ok());
  // Supports: {0}=4 {1}=4 {2}=4 {0,1}=3 {0,2}=3 {1,2}=3 {0,1,2}=2.
  EXPECT_EQ(result->itemsets.size(), 6u);
  EXPECT_EQ(result->itemsets.front().support, 4u);
}

TEST(BruteForceTest, RequiresLengthCap) {
  TransactionDatabase db = MakeDb({{0}});
  EXPECT_FALSE(MineBruteForce(db, {.min_support = 1, .max_length = 0}).ok());
}

TEST(BruteForceTest, RejectsZeroSupport) {
  TransactionDatabase db = MakeDb({{0}});
  EXPECT_FALSE(MineBruteForce(db, {.min_support = 0, .max_length = 2}).ok());
}

TEST(FpGrowthTest, MatchesBruteForceOnExample) {
  TransactionDatabase db = MakeDb({
      {0, 1, 3}, {1, 2}, {0, 1, 2}, {0, 2}, {0, 1, 2, 3},
  });
  MiningOptions options{.min_support = 2, .max_length = 4};
  auto brute = MineBruteForce(db, options);
  auto fp = MineFpGrowth(db, options);
  ASSERT_TRUE(brute.ok() && fp.ok());
  EXPECT_EQ(fp->itemsets, brute->itemsets);
}

// The central miner-agreement property: FP-Growth == brute force across
// randomized databases, thresholds, and length caps.
struct MinerAgreementCase {
  uint64_t seed;
  uint64_t min_support;
  size_t max_length;
};

class MinerAgreementTest
    : public ::testing::TestWithParam<MinerAgreementCase> {};

TEST_P(MinerAgreementTest, FpGrowthMatchesBruteForce) {
  const auto& param = GetParam();
  TransactionDatabase db = MakeRandomDb(
      {.seed = param.seed, .num_transactions = 70, .universe = 11,
       .item_prob = 0.35});
  MiningOptions options{.min_support = param.min_support,
                        .max_length = param.max_length};
  auto brute = MineBruteForce(db, options);
  auto fp = MineFpGrowth(db, options);
  ASSERT_TRUE(brute.ok() && fp.ok());
  EXPECT_EQ(fp->itemsets, brute->itemsets);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerAgreementTest,
    ::testing::Values(
        MinerAgreementCase{1, 2, 3}, MinerAgreementCase{2, 5, 3},
        MinerAgreementCase{3, 10, 4}, MinerAgreementCase{4, 3, 2},
        MinerAgreementCase{5, 7, 5}, MinerAgreementCase{6, 15, 3},
        MinerAgreementCase{7, 2, 1}, MinerAgreementCase{8, 4, 4},
        MinerAgreementCase{9, 20, 2}, MinerAgreementCase{10, 1, 2}));

TEST(MinerAgreementTest, UnboundedLengthFpGrowthVsBruteForce) {
  // Brute force needs a cap; at the universe size it caps nothing, so it
  // is the oracle for an unbounded FP-Growth mine.
  TransactionDatabase db = MakeRandomDb({.seed = 99, .universe = 9});
  auto brute = MineBruteForce(db, {.min_support = 5, .max_length = 9});
  auto fp = MineFpGrowth(db, {.min_support = 5});
  ASSERT_TRUE(brute.ok() && fp.ok());
  EXPECT_EQ(fp->itemsets, brute->itemsets);
}

TEST(FpGrowthTest, MaxLengthCapRespected) {
  TransactionDatabase db = MakeRandomDb({.seed = 12});
  MiningOptions options{.min_support = 2, .max_length = 2};
  auto fp = MineFpGrowth(db, options);
  ASSERT_TRUE(fp.ok());
  for (const auto& fi : fp->itemsets) {
    EXPECT_LE(fi.items.size(), 2u);
  }
}

TEST(FpGrowthTest, MinSupportBoundary) {
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0}});
  auto fp = MineFpGrowth(db, {.min_support = 2});
  ASSERT_TRUE(fp.ok());
  // {0}=3, {1}=2, {0,1}=2 all qualify at support 2.
  EXPECT_EQ(fp->itemsets.size(), 3u);
  auto fp3 = MineFpGrowth(db, {.min_support = 3});
  ASSERT_TRUE(fp3.ok());
  EXPECT_EQ(fp3->itemsets.size(), 1u);
  EXPECT_EQ(fp3->itemsets[0].items, Itemset({0}));
}

TEST(FpGrowthTest, TruncatesOnMaxPatterns) {
  TransactionDatabase db = MakeRandomDb({.seed = 31, .item_prob = 0.5});
  MiningOptions options{.min_support = 1, .max_patterns = 10};
  auto fp = MineFpGrowth(db, options);
  ASSERT_TRUE(fp.ok());
  EXPECT_TRUE(fp->aborted);
  // Truncation contract: exactly max_patterns patterns, each exact.
  ASSERT_EQ(fp->itemsets.size(), 10u);
  for (const auto& fi : fp->itemsets) {
    EXPECT_EQ(fi.support, db.SupportOf(fi.items));
  }
}

TEST(FpGrowthTest, EmptyDatabase) {
  TransactionDatabase db = MakeDb({}, /*universe=*/5);
  auto fp = MineFpGrowth(db, {.min_support = 1});
  ASSERT_TRUE(fp.ok());
  EXPECT_TRUE(fp->itemsets.empty());
}

TEST(FpGrowthTest, SupportsAreExact) {
  TransactionDatabase db = MakeRandomDb({.seed = 44, .universe = 10});
  auto fp = MineFpGrowth(db, {.min_support = 3});
  ASSERT_TRUE(fp.ok());
  ASSERT_FALSE(fp->itemsets.empty());
  for (const auto& fi : fp->itemsets) {
    EXPECT_EQ(fi.support, db.SupportOf(fi.items)) << fi.items.ToString();
  }
}

TEST(SortCanonicalTest, OrdersBySupportLengthLex) {
  std::vector<FrequentItemset> items{
      {Itemset({1, 2}), 5},
      {Itemset({0}), 5},
      {Itemset({3}), 9},
      {Itemset({1, 3}), 5},
  };
  SortCanonical(&items);
  EXPECT_EQ(items[0].items, Itemset({3}));     // support 9
  EXPECT_EQ(items[1].items, Itemset({0}));     // support 5, length 1
  EXPECT_EQ(items[2].items, Itemset({1, 2}));  // support 5, lex smaller
  EXPECT_EQ(items[3].items, Itemset({1, 3}));
}

}  // namespace
}  // namespace privbasis
