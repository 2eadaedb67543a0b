#include "core/basis_freq.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/vertical_index.h"
#include "bench_util.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;
using ::privbasis::bench::ScanExecutor;

/// BasisFreq counting through a scan-only executor over `db`.
Result<BasisFreqResult> RunBasisFreq(const TransactionDatabase& db,
                                     const BasisSet& basis, size_t k,
                                     double epsilon, Rng& rng,
                                     PrivacyAccountant* accountant = nullptr,
                                     BasisFreqOptions options = {}) {
  const DirectCountExecutor exec = ScanExecutor(db);
  options.exec = &exec;
  return BasisFreq(db, basis, k, epsilon, rng, accountant, options);
}

BasisFreqOptions NoNoise() {
  BasisFreqOptions options;
  options.inject_noise = false;
  return options;
}

TEST(BasisFreqTest, ExactCountsWithoutNoise) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {1, 2}, {0}});
  BasisSet basis({Itemset({0, 1, 2})});
  Rng rng(1);
  auto result = RunBasisFreq(db, basis, /*k=*/0, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_candidates, 7u);
  VerticalIndex index(db);
  for (const auto& c : result->topk) {
    EXPECT_NEAR(c.noisy_count,
                static_cast<double>(index.SupportOf(c.items)), 1e-9)
        << c.items.ToString();
  }
}

// Property: without noise, BasisFreq recovers exact supports for every
// candidate itemset on random databases and random (overlapping) bases,
// under both superset-sum implementations.
struct BfCase {
  uint64_t seed;
  bool fast;
};

class BasisFreqExactnessTest : public ::testing::TestWithParam<BfCase> {};

TEST_P(BasisFreqExactnessTest, AllCandidatesExact) {
  const auto& param = GetParam();
  TransactionDatabase db = MakeRandomDb(
      {.seed = param.seed, .num_transactions = 60, .universe = 12});
  Rng basis_rng(param.seed + 100);
  BasisSet basis;
  for (int i = 0; i < 3; ++i) {
    std::vector<Item> items;
    for (Item it = 0; it < 12; ++it) {
      if (basis_rng.Bernoulli(0.3)) items.push_back(it);
    }
    if (items.empty()) items.push_back(static_cast<Item>(i));
    basis.Add(Itemset(std::move(items)));
  }
  BasisFreqOptions options = NoNoise();
  options.use_fast_superset_sum = param.fast;
  Rng rng(param.seed);
  auto result = RunBasisFreq(db, basis, 0, 1.0, rng, nullptr, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->num_candidates, 0u);
  VerticalIndex index(db);
  for (const auto& c : result->topk) {
    EXPECT_NEAR(c.noisy_count,
                static_cast<double>(index.SupportOf(c.items)), 1e-6)
        << c.items.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BasisFreqExactnessTest,
    ::testing::Values(BfCase{1, true}, BfCase{1, false}, BfCase{2, true},
                      BfCase{2, false}, BfCase{3, true}, BfCase{3, false},
                      BfCase{4, true}, BfCase{4, false}));

TEST(BasisFreqTest, FastAndNaiveSupersetSumsAgreeWithNoise) {
  // With the same RNG seed both variants must produce identical output
  // (noise draws happen before the transform).
  TransactionDatabase db = MakeRandomDb({.seed = 5});
  BasisSet basis({Itemset({0, 1, 2, 3}), Itemset({2, 3, 4})});
  BasisFreqOptions fast, naive;
  naive.use_fast_superset_sum = false;
  Rng rng1(42), rng2(42);
  auto a = RunBasisFreq(db, basis, 0, 1.0, rng1, nullptr, fast);
  auto b = RunBasisFreq(db, basis, 0, 1.0, rng2, nullptr, naive);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->topk.size(), b->topk.size());
  for (size_t i = 0; i < a->topk.size(); ++i) {
    EXPECT_EQ(a->topk[i].items, b->topk[i].items);
    EXPECT_NEAR(a->topk[i].noisy_count, b->topk[i].noisy_count, 1e-6);
  }
}

TEST(BasisFreqTest, TopKSelectsHighestExactCountsWithoutNoise) {
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0, 1, 2}, {2}});
  BasisSet basis({Itemset({0, 1, 2})});
  Rng rng(7);
  auto result = RunBasisFreq(db, basis, 2, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->topk.size(), 2u);
  // Counts: {0}=3 {1}=3 {0,1}=3 {2}=2 ... tie-break: shorter, then lex.
  EXPECT_EQ(result->topk[0].items, Itemset({0}));
  EXPECT_EQ(result->topk[1].items, Itemset({1}));
}

TEST(BasisFreqTest, OverlappingBasesFuseToOneEstimatePerItemset) {
  TransactionDatabase db = MakeDb({{0, 1, 2, 3}, {0, 1}, {2, 3}});
  BasisSet basis({Itemset({0, 1, 2}), Itemset({1, 2, 3})});
  Rng rng(9);
  auto result = RunBasisFreq(db, basis, 0, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  // Candidates: subsets of either basis, deduplicated: 7 + 7 − 3 = 11.
  EXPECT_EQ(result->num_candidates, 11u);
  size_t occurrences = 0;
  for (const auto& c : result->topk) {
    if (c.items == Itemset({1, 2})) ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(BasisFreqTest, NoiseMagnitudeMatchesEquation4) {
  // Single basis of length l, itemset of size x: empirical error variance
  // of the noisy count over many runs ≈ 2^{l−x+1}·(w/ε)².
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {2}});
  BasisSet basis({Itemset({0, 1, 2})});
  const double epsilon = 1.0;
  const Itemset target({0, 1});
  const double exact = 2.0;
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    auto result = RunBasisFreq(db, basis, 0, epsilon, rng);
    ASSERT_TRUE(result.ok());
    for (const auto& c : result->topk) {
      if (c.items == target) {
        double err = c.noisy_count - exact;
        sum += err;
        sum_sq += err * err;
      }
    }
  }
  double mean = sum / trials;
  double var = sum_sq / trials - mean * mean;
  // 2 bins summed, each Lap(1): variance 2·2 = 4 (count domain).
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(BasisFreqTest, ChargesAccountant) {
  TransactionDatabase db = MakeDb({{0}});
  BasisSet basis({Itemset({0})});
  PrivacyAccountant accountant(1.0);
  Rng rng(13);
  auto result = RunBasisFreq(db, basis, 1, 0.6, rng, &accountant);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(accountant.spent_epsilon(), 0.6, 1e-12);
  // Second call exceeding the budget must fail.
  auto over = RunBasisFreq(db, basis, 1, 0.6, rng, &accountant);
  EXPECT_FALSE(over.ok());
}

TEST(BasisFreqTest, RejectsExcessiveBasisLength) {
  TransactionDatabase db = MakeDb({{0}}, /*universe=*/30);
  std::vector<Item> big;
  for (Item i = 0; i < 25; ++i) big.push_back(i);
  BasisSet basis({Itemset(std::move(big))});
  Rng rng(15);
  EXPECT_FALSE(RunBasisFreq(db, basis, 1, 1.0, rng).ok());
}

TEST(BasisFreqTest, RejectsNonPositiveEpsilon) {
  TransactionDatabase db = MakeDb({{0}});
  BasisSet basis({Itemset({0})});
  Rng rng(17);
  EXPECT_FALSE(RunBasisFreq(db, basis, 1, 0.0, rng).ok());
}

// Without an executor BasisFreq refuses before charging any ε.
TEST(BasisFreqTest, NullExecutorIsInvalidAndChargesNothing) {
  TransactionDatabase db = MakeDb({{0, 1}, {1}});
  BasisSet basis({Itemset({0, 1})});
  PrivacyAccountant accountant(1.0);
  Rng rng(18);
  auto result = BasisFreq(db, basis, 1, 0.5, rng, &accountant);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.spent_epsilon(), 0.0);
  EXPECT_TRUE(accountant.entries().empty());
}

TEST(BasisFreqTest, EmptyBasisSetYieldsNothing) {
  TransactionDatabase db = MakeDb({{0}});
  Rng rng(19);
  auto result = RunBasisFreq(db, BasisSet(), 5, 1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->topk.empty());
  EXPECT_EQ(result->num_candidates, 0u);
}

TEST(BasisFreqTest, KLimitsOutput) {
  TransactionDatabase db = MakeRandomDb({.seed = 6});
  BasisSet basis({Itemset({0, 1, 2, 3, 4})});
  Rng rng(21);
  auto result = RunBasisFreq(db, basis, 3, 1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->topk.size(), 3u);
  EXPECT_EQ(result->num_candidates, 31u);
}

TEST(BasisFreqTest, NoisyCountsSortedDescending) {
  TransactionDatabase db = MakeRandomDb({.seed = 7});
  BasisSet basis({Itemset({0, 1, 2, 3})});
  Rng rng(23);
  auto result = RunBasisFreq(db, basis, 10, 0.5, rng);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->topk.size(); ++i) {
    EXPECT_GE(result->topk[i - 1].noisy_count, result->topk[i].noisy_count);
  }
}

}  // namespace
}  // namespace privbasis
