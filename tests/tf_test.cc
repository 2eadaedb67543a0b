#include "baseline/tf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "baseline/gamma.h"
#include "fim/topk.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

TEST(GammaTest, Equation3) {
  // γ = (4k/(εN))·(ln(k/ρ) + ln|U|).
  const uint64_t n = 88162;
  const size_t k = 100;
  const double epsilon = 1.0, rho = 0.9;
  const double log_u = std::log(16470.0);  // retail, m = 1
  double gamma = TfGamma(n, k, epsilon, rho, log_u);
  double expected =
      4.0 * 100 / (1.0 * 88162) * (std::log(100 / 0.9) + std::log(16470.0));
  EXPECT_NEAR(gamma, expected, 1e-12);
  // Paper Table 2(b): retail γ·N = 5768.
  EXPECT_NEAR(gamma * n, 5768.0, 5.0);
}

TEST(GammaTest, PaperTable2bRows) {
  // mushroom: |I|=119, m=2, k=100, N=8124 -> γ·N ≈ 5433.
  double log_u = TfLogCandidateSpace(119, 2);
  EXPECT_NEAR(TfGamma(8124, 100, 1.0, 0.9, log_u) * 8124, 5433.0, 10.0);
  // kosarak: |I|=41270, m=2, k=200, N=990002 -> γ·N ≈ 20733 (the paper
  // rounds |U| ≈ C(|I|,m); our exact Σ C(|I|,i) lands ~0.2% higher).
  log_u = TfLogCandidateSpace(41270, 2);
  EXPECT_NEAR(TfGamma(990002, 200, 1.0, 0.9, log_u) * 990002, 20733.0, 60.0);
  // AOL: |I|=2290685, m=1, k=200 -> γ·N ≈ 16038.
  log_u = TfLogCandidateSpace(2290685, 1);
  EXPECT_NEAR(TfGamma(647377, 200, 1.0, 0.9, log_u) * 647377, 16038.0, 30.0);
}

TEST(GammaTest, DegeneracyDetection) {
  // kosarak row: γ·N = 20733 > fk·N = 14142 -> degenerate.
  auto eff = ComputeTfEffectiveness(41270, 990002, 14142, 200, 2, 1.0, 0.9);
  EXPECT_TRUE(eff.degenerate);
  // mushroom row: γ·N = 5433 < fk·N = 4464? No — 5433 > 4464: degenerate
  // too (the paper's Table 2(b) shows TF ineffective for mushroom m=2).
  eff = ComputeTfEffectiveness(119, 8124, 4464, 100, 2, 1.0, 0.9);
  EXPECT_TRUE(eff.degenerate);
  // A clearly non-degenerate configuration: tiny k, large fk.
  eff = ComputeTfEffectiveness(100, 100000, 50000, 5, 1, 1.0, 0.9);
  EXPECT_FALSE(eff.degenerate);
}

TEST(TfRunnerTest, CreateValidatesArguments) {
  TransactionDatabase db = MakeRandomDb({.seed = 1});
  EXPECT_FALSE(TfRunner::Create(db, 0, {}).ok());
  TfOptions bad;
  bad.m = 0;
  EXPECT_FALSE(TfRunner::Create(db, 5, bad).ok());
}

TEST(TfRunnerTest, FailsWhenFewerThanKItemsets) {
  TransactionDatabase db = MakeDb({{0}});
  TfOptions options;
  options.m = 1;
  EXPECT_FALSE(TfRunner::Create(db, 10, options).ok());
}

TEST(TfRunnerTest, FkMatchesTopKMining) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 3, .num_transactions = 100, .universe = 12});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 10, options);
  ASSERT_TRUE(runner.ok());
  auto topk = MineTopK(db, 10, 2);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(runner->fk_count(), topk->kth_support);
}

TEST(TfRunnerTest, ExplicitSetContainsEverythingAboveFloor) {
  TransactionDatabase db = MakeRandomDb({.seed = 5, .universe = 10});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 8, options);
  ASSERT_TRUE(runner.ok());
  EXPECT_GE(runner->num_explicit(), 8u);
  EXPECT_GE(runner->floor_support(), 1u);
}

class TfSelectionVariantTest
    : public ::testing::TestWithParam<TfOptions::Selection> {};

TEST_P(TfSelectionVariantTest, HighEpsilonRecoversTopK) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 7, .num_transactions = 200, .universe = 14,
       .item_prob = 0.4});
  const size_t k = 12;
  TfOptions options;
  options.m = 2;
  options.selection = GetParam();
  auto runner = TfRunner::Create(db, k, options);
  ASSERT_TRUE(runner.ok());
  auto truth = MineTopK(db, k, 2);
  ASSERT_TRUE(truth.ok());

  Rng rng(9);
  auto result = runner->Run(/*epsilon=*/500.0, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->released.size(), k);
  std::unordered_set<Itemset, ItemsetHash> released;
  for (const auto& r : result->released) released.insert(r.items);
  size_t hits = 0;
  for (const auto& fi : truth->itemsets) hits += released.contains(fi.items);
  EXPECT_GE(hits, k - 1);
}

TEST_P(TfSelectionVariantTest, ReleasedCountsNearExactAtHighEpsilon) {
  TransactionDatabase db = MakeRandomDb({.seed = 11, .universe = 10});
  TfOptions options;
  options.m = 2;
  options.selection = GetParam();
  auto runner = TfRunner::Create(db, 5, options);
  ASSERT_TRUE(runner.ok());
  VerticalIndex index(db);
  Rng rng(13);
  auto result = runner->Run(1000.0, rng);
  ASSERT_TRUE(result.ok());
  for (const auto& r : result->released) {
    double exact = static_cast<double>(index.SupportOf(r.items));
    EXPECT_NEAR(r.noisy_count, exact, 0.5) << r.items.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TfSelectionVariantTest,
    ::testing::Values(TfOptions::Selection::kExponentialMechanism,
                      TfOptions::Selection::kLaplaceNoise));

TEST(TfRunnerTest, ReleasesExactlyKDistinctItemsets) {
  TransactionDatabase db = MakeRandomDb({.seed = 15, .universe = 12});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 10, options);
  ASSERT_TRUE(runner.ok());
  Rng rng(17);
  for (double epsilon : {0.2, 1.0, 5.0}) {
    auto result = runner->Run(epsilon, rng);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->released.size(), 10u);
    std::unordered_set<Itemset, ItemsetHash> unique;
    for (const auto& r : result->released) unique.insert(r.items);
    EXPECT_EQ(unique.size(), 10u) << "epsilon " << epsilon;
  }
}

TEST(TfRunnerTest, ItemsetLengthsRespectM) {
  TransactionDatabase db = MakeRandomDb({.seed = 19, .universe = 12});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 10, options);
  ASSERT_TRUE(runner.ok());
  Rng rng(21);
  auto result = runner->Run(0.1, rng);  // low ε: implicit draws happen
  ASSERT_TRUE(result.ok());
  for (const auto& r : result->released) {
    EXPECT_GE(r.items.size(), 1u);
    EXPECT_LE(r.items.size(), 2u);
  }
}

TEST(TfRunnerTest, M1UsesSingletonFastPath) {
  TransactionDatabase db = MakeRandomDb({.seed = 23, .universe = 20});
  TfOptions options;
  options.m = 1;
  auto runner = TfRunner::Create(db, 5, options);
  ASSERT_TRUE(runner.ok());
  EXPECT_LE(runner->num_explicit(), 20u);
  Rng rng(25);
  auto result = runner->Run(1.0, rng);
  ASSERT_TRUE(result.ok());
  for (const auto& r : result->released) {
    EXPECT_EQ(r.items.size(), 1u);
  }
}

TEST(TfRunnerTest, DiagnosticsConsistent) {
  TransactionDatabase db = MakeRandomDb({.seed = 27, .universe = 12});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 10, options);
  ASSERT_TRUE(runner.ok());
  Rng rng(29);
  auto result = runner->Run(0.5, rng);
  ASSERT_TRUE(result.ok());
  double fk =
      static_cast<double>(runner->fk_count()) /
      static_cast<double>(db.NumTransactions());
  EXPECT_NEAR(result->truncated_freq, fk - result->gamma, 1e-12);
  EXPECT_EQ(result->degenerate, result->truncated_freq <= 0.0);
  auto eff = ComputeTfEffectiveness(db.UniverseSize(), db.NumTransactions(),
                                    runner->fk_count(), 10, options.m, 0.5,
                                    options.rho);
  EXPECT_NEAR(eff.gamma_count,
              result->gamma * static_cast<double>(db.NumTransactions()), 1e-6);
}

TEST(TfRunnerTest, ChargesAccountant) {
  TransactionDatabase db = MakeRandomDb({.seed = 31, .universe = 10});
  TfOptions options;
  options.m = 1;
  auto runner = TfRunner::Create(db, 5, options);
  ASSERT_TRUE(runner.ok());
  PrivacyAccountant accountant(1.0);
  Rng rng(33);
  ASSERT_TRUE(runner->Run(0.7, rng, &accountant).ok());
  EXPECT_NEAR(accountant.spent_epsilon(), 0.7, 1e-12);
  EXPECT_FALSE(runner->Run(0.7, rng, &accountant).ok());
}

TEST(TfRunnerTest, LowEpsilonDegeneratePathSelectsImplicit) {
  // Tiny ε on a small dataset: γ >> fk, selection is near-uniform over U,
  // so most winners come from the implicit mass.
  TransactionDatabase db = MakeRandomDb(
      {.seed = 35, .num_transactions = 60, .universe = 18,
       .item_prob = 0.3});
  TfOptions options;
  options.m = 2;
  auto runner = TfRunner::Create(db, 10, options);
  ASSERT_TRUE(runner.ok());
  Rng rng(37);
  auto result = runner->Run(0.01, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degenerate);
  EXPECT_EQ(result->released.size(), 10u);
}

TEST(TfRunnerTest, ExplicitLimitRaisesFloorForM1) {
  // More singletons than the explicit cap: the m=1 path must raise its
  // floor until the set fits instead of failing.
  TransactionDatabase db = testing::MakeRandomDb(
      {.seed = 43, .num_transactions = 100, .universe = 30,
       .item_prob = 0.5});
  TfOptions options;
  options.m = 1;
  options.explicit_limit = 5;
  auto runner = TfRunner::Create(db, 3, options);
  ASSERT_TRUE(runner.ok());
  EXPECT_LE(runner->num_explicit(), 5u);
  EXPECT_GT(runner->floor_support(), 1u);
  Rng rng(45);
  auto result = runner->Run(1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->released.size(), 3u);
}

TEST(TfRunnerTest, ExplicitLimitRaisesFloorForM2) {
  TransactionDatabase db = testing::MakeRandomDb(
      {.seed = 47, .num_transactions = 100, .universe = 20,
       .item_prob = 0.5});
  TfOptions options;
  options.m = 2;
  options.explicit_limit = 10;
  auto runner = TfRunner::Create(db, 4, options);
  ASSERT_TRUE(runner.ok());
  EXPECT_LE(runner->num_explicit(), 10u);
  Rng rng(49);
  auto result = runner->Run(2.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->released.size(), 4u);
}

TEST(TfRunnerTest, RejectsNonPositiveEpsilon) {
  TransactionDatabase db = MakeRandomDb({.seed = 39, .universe = 10});
  TfOptions options;
  options.m = 1;
  auto runner = TfRunner::Create(db, 5, options);
  ASSERT_TRUE(runner.ok());
  Rng rng(41);
  EXPECT_FALSE(runner->Run(0.0, rng).ok());
}

}  // namespace
}  // namespace privbasis
