#include "core/privbasis.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "common/cancel.h"
#include "core/batch_exec.h"
#include "data/synthetic.h"
#include "data/vertical_index.h"
#include "engine/engine.h"
#include "fim/topk.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;
using ::privbasis::testing::RandomDbSpec;

/// One PrivBasis query through the public entry point (Engine::Run),
/// threading an external Rng so multi-release tests draw from one
/// continuing stream exactly as the pre-Engine free function did.
Result<Release> RunPb(const TransactionDatabase& db, size_t k,
                      double epsilon, Rng& rng,
                      const PrivBasisOptions& options = {}) {
  QuerySpec spec;
  spec.k = k;
  spec.epsilon = epsilon;
  spec.pb = options;
  auto handle = Dataset::Borrow(db);
  return Engine::Run(*handle, spec, rng);
}

TEST(GetLambdaTest, HighEpsilonPicksRankClosestToThreshold) {
  // Items with clearly separated supports; fk1 sits exactly at the
  // support of the 3rd item, so λ should be 3 at high ε.
  TransactionDatabase::Builder builder(6);
  // Supports: item0=50, item1=40, item2=30, item3=20, item4=10, item5=5.
  std::vector<int> supports{50, 40, 30, 20, 10, 5};
  for (int t = 0; t < 50; ++t) {
    std::vector<Item> txn;
    for (Item i = 0; i < 6; ++i) {
      if (t < supports[i]) txn.push_back(i);
    }
    builder.AddTransaction(txn);
  }
  auto db = std::move(builder).Build();
  ASSERT_TRUE(db.ok());
  Rng rng(1);
  int hits = 0;
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t lambda = GetLambda(*db, /*fk1_support=*/30, /*epsilon=*/50.0,
                                rng);
    hits += lambda == 3;
  }
  EXPECT_GE(hits, 48);
}

TEST(GetLambdaTest, LowEpsilonStillReturnsValidRank) {
  TransactionDatabase db = MakeRandomDb({.seed = 2, .universe = 10});
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t lambda = GetLambda(db, 5, 0.01, rng);
    EXPECT_GE(lambda, 1u);
    EXPECT_LE(lambda, 10u);
  }
}

TEST(GetFreqElementsTest, HighEpsilonSelectsTrueTop) {
  std::vector<uint64_t> supports{100, 90, 80, 5, 4, 3, 2, 1};
  Rng rng(5);
  auto picks = GetFreqElements(supports, 3, /*epsilon=*/100.0,
                               /*monotonic=*/true, rng);
  ASSERT_TRUE(picks.ok());
  std::unordered_set<size_t> set(picks->begin(), picks->end());
  EXPECT_EQ(set, (std::unordered_set<size_t>{0, 1, 2}));
}

TEST(GetFreqElementsTest, ZeroCountEmpty) {
  std::vector<uint64_t> supports{10, 20};
  Rng rng(7);
  auto picks = GetFreqElements(supports, 0, 1.0, true, rng);
  ASSERT_TRUE(picks.ok());
  EXPECT_TRUE(picks->empty());
}

TEST(GetFreqElementsTest, RejectsOverdraw) {
  std::vector<uint64_t> supports{10};
  Rng rng(9);
  EXPECT_FALSE(GetFreqElements(supports, 2, 1.0, true, rng).ok());
}

TEST(GetFreqElementsTest, WithoutReplacement) {
  std::vector<uint64_t> supports(20, 7);  // all tie
  Rng rng(11);
  auto picks = GetFreqElements(supports, 20, 1.0, true, rng);
  ASSERT_TRUE(picks.ok());
  std::unordered_set<size_t> set(picks->begin(), picks->end());
  EXPECT_EQ(set.size(), 20u);
}

TEST(CountPairSupportsTest, MatchesBruteForce) {
  TransactionDatabase db = MakeRandomDb({.seed = 4, .universe = 10});
  std::vector<Item> items{0, 2, 5, 7};
  auto counts = CountPairSupports(db, items);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_EQ(counts[i * items.size() + j],
                db.SupportOf(Itemset({items[i], items[j]})))
          << items[i] << "," << items[j];
    }
  }
}

TEST(CountPairSupportsTest, EmptyItems) {
  TransactionDatabase db = MakeDb({{0, 1}});
  EXPECT_TRUE(CountPairSupports(db, {}).empty());
}

TEST(CountPairSupportsTest, RepeatedAndOutOfUniverseItems) {
  TransactionDatabase db = MakeRandomDb({.seed = 4, .universe = 10});
  // Position 2 repeats item 2 and position 3 is outside the universe:
  // every pair touching either stays 0.
  const std::vector<Item> items{2, 5, 2, 99, 7};
  const auto counts = CountPairSupports(db, items);
  ASSERT_EQ(counts.size(), items.size() * items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      const bool counted = i != 2 && j != 2 && i != 3 && j != 3;
      EXPECT_EQ(counts[i * items.size() + j],
                counted ? db.SupportOf(Itemset({items[i], items[j]})) : 0)
          << i << "," << j;
    }
  }
}

/// A DirectCountExecutor whose index gives every occurring item a bitmap
/// (density 0) or none (density 2).
DirectCountExecutor MakeDirect(TransactionDatabase db, double density) {
  auto shared = std::make_shared<const TransactionDatabase>(std::move(db));
  VerticalIndex::Options options;
  options.density_threshold = density;
  auto index = std::make_shared<const VerticalIndex>(*shared, options);
  return DirectCountExecutor(shared, index);
}

/// True when DirectCountExecutor::PairSupports counts `items` through
/// the bitmaps rather than the scan.
bool TakesBitmapPath(const TransactionDatabase& db, const VerticalIndex& index,
                     const std::vector<Item>& items) {
  const uint64_t m = items.size();
  const uint64_t words = (db.NumTransactions() + 63) / 64;
  for (Item it : items) {
    if (!index.IsDense(it)) return false;
  }
  return m * (m - 1) / 2 * words < db.TotalItemOccurrences();
}

TEST(DirectPairSupportsTest, BothPathsMatchTheScan) {
  const RandomDbSpec small{.seed = 5, .num_transactions = 300,
                           .universe = 12, .item_prob = 0.5};
  const RandomDbSpec wide{.seed = 6, .num_transactions = 640,
                          .universe = 40, .item_prob = 0.3};
  struct Case {
    RandomDbSpec spec;
    double density;
    std::vector<Item> items;
    bool bitmap_path;
  };
  std::vector<Item> many(24);
  for (Item i = 0; i < 24; ++i) many[i] = i;
  const std::vector<Case> cases = {
      // Few pairs, all bitmaps: counted through the index (with a
      // repeated item, which must stay 0 as in the scan).
      {small, 0.0, {0, 3, 5, 7, 3, 1}, true},
      // No bitmaps: the scan.
      {small, 2.0, {0, 3, 5, 7, 3, 1}, false},
      // All bitmaps, but more bitmap words than item occurrences: the scan.
      {wide, 0.0, many, false},
  };
  for (const Case& c : cases) {
    TransactionDatabase db = MakeRandomDb(c.spec);
    VerticalIndex::Options options;
    options.density_threshold = c.density;
    ASSERT_EQ(TakesBitmapPath(db, VerticalIndex(db, options), c.items),
              c.bitmap_path);
    const std::vector<uint64_t> want = CountPairSupports(db, c.items);
    const DirectCountExecutor exec = MakeDirect(std::move(db), c.density);
    auto got = exec.PairSupports(c.items, nullptr);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, want) << "bitmap path " << c.bitmap_path;

    CancelToken fired;
    fired.Cancel();
    EXPECT_EQ(exec.PairSupports(c.items, &fired).status().code(),
              StatusCode::kCancelled);
  }
}

TEST(PrivBasisQueryTest, ValidatesArguments) {
  TransactionDatabase db = MakeDb({{0, 1}});
  Rng rng(13);
  EXPECT_FALSE(RunPb(db, 0, 1.0, rng).ok());
  EXPECT_FALSE(RunPb(db, 5, 0.0, rng).ok());
  PrivBasisOptions bad;
  bad.alpha1 = 0.5;
  bad.alpha2 = 0.5;
  bad.alpha3 = 0.5;
  EXPECT_FALSE(RunPb(db, 5, 1.0, rng, bad).ok());
  PrivBasisOptions zero;
  zero.alpha1 = 0.0;
  EXPECT_FALSE(RunPb(db, 5, 1.0, rng, zero).ok());
}

TEST(PrivBasisQueryTest, RejectsEmptyDatabase) {
  TransactionDatabase db = MakeDb({});
  Rng rng(15);
  EXPECT_FALSE(RunPb(db, 5, 1.0, rng).ok());
}

TEST(PrivBasisQueryTest, HighEpsilonRecoversExactTopKSingleBasisPath) {
  // Dense correlated data with few distinct items: λ ≤ 12 single-basis
  // path; at huge ε the release must equal the exact top-k.
  auto db = GenerateDataset(SyntheticProfile::Mushroom(0.1), 17);
  ASSERT_TRUE(db.ok());
  const size_t k = 25;
  auto truth = MineTopK(*db, k);
  ASSERT_TRUE(truth.ok());
  Rng rng(19);
  auto result = RunPb(*db, k, /*epsilon=*/200.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->lambda, 12u);
  EXPECT_EQ(result->basis_set.Width(), 1u);
  std::unordered_set<Itemset, ItemsetHash> released;
  for (const auto& r : result->itemsets) released.insert(r.items);
  size_t hits = 0;
  for (const auto& fi : truth->itemsets) hits += released.contains(fi.items);
  EXPECT_GE(hits, k - 1);  // allow one boundary tie swap
}

TEST(PrivBasisQueryTest, HighEpsilonAccurateMultiBasisPath) {
  // Sparse long-tail data: λ > 12 path with pair selection and basis
  // construction.
  SyntheticProfile profile;
  profile.name = "sparse";
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 4000;
  profile.universe_size = 400;
  profile.zipf_exponent = 0.8;
  profile.mean_transaction_length = 8;
  profile.patterns = {{{3, 9, 15}, 0.08, 0.0}, {{5, 12}, 0.09, 0.0}};
  auto db = GenerateDataset(profile, 21);
  ASSERT_TRUE(db.ok());
  const size_t k = 60;
  auto truth = MineTopK(*db, k);
  ASSERT_TRUE(truth.ok());
  Rng rng(23);
  auto result = RunPb(*db, k, /*epsilon=*/400.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->lambda, 12u);
  EXPECT_GT(result->basis_set.Width(), 1u);
  std::unordered_set<Itemset, ItemsetHash> released;
  for (const auto& r : result->itemsets) released.insert(r.items);
  size_t hits = 0;
  for (const auto& fi : truth->itemsets) hits += released.contains(fi.items);
  // The basis path is an approximation even at huge ε (the basis may not
  // cover everything); demand at least 85% recovery.
  EXPECT_GE(hits, k * 85 / 100);
}

TEST(PrivBasisQueryTest, NeverExceedsBudget) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 25, .num_transactions = 100, .universe = 15});
  Rng rng(27);
  for (double epsilon : {0.1, 0.5, 1.0, 2.0}) {
    auto result = RunPb(db, 10, epsilon, rng);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LE(result->epsilon_spent, epsilon * (1.0 + 1e-9));
    EXPECT_GT(result->epsilon_spent, 0.0);
  }
}

TEST(PrivBasisQueryTest, ReleasesAtMostKItemsets) {
  TransactionDatabase db = MakeRandomDb({.seed = 29, .universe = 12});
  Rng rng(31);
  auto result = RunPb(db, 8, 1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->itemsets.size(), 8u);
}

TEST(PrivBasisQueryTest, BasisLengthRespectsOption) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 33, .num_transactions = 200, .universe = 40,
       .item_prob = 0.3});
  Rng rng(35);
  PrivBasisOptions options;
  options.max_basis_length = 6;
  options.single_basis_lambda_cap = 4;  // force the multi-basis path
  auto result = RunPb(db, 30, 5.0, rng, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->basis_set.Length(), 6u);
}

TEST(PrivBasisQueryTest, LambdaCapGuardsAgainstWildSamples) {
  TransactionDatabase db = MakeRandomDb({.seed = 37, .universe = 30});
  Rng rng(39);
  PrivBasisOptions options;
  options.lambda_cap = 5;
  auto result = RunPb(db, 10, 0.05, rng, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->lambda, 5u);
}

TEST(PrivBasisQueryTest, Fk1HintMatchesInternalComputation) {
  TransactionDatabase db = MakeRandomDb({.seed = 41, .universe = 12});
  const size_t k = 10;
  auto top = MineTopK(db, 11);  // ceil(1.1 · 10)
  ASSERT_TRUE(top.ok());
  PrivBasisOptions with_hint;
  with_hint.fk1_support_hint = top->kth_support;
  // Identical seeds must produce identical releases with and without the
  // hint (the hint only skips the internal mining).
  Rng rng1(43), rng2(43);
  auto a = RunPb(db, k, 1.0, rng1);
  auto b = RunPb(db, k, 1.0, rng2, with_hint);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->itemsets.size(), b->itemsets.size());
  for (size_t i = 0; i < a->itemsets.size(); ++i) {
    EXPECT_EQ(a->itemsets[i].items, b->itemsets[i].items);
    EXPECT_EQ(a->itemsets[i].noisy_count, b->itemsets[i].noisy_count);
  }
}

TEST(PrivBasisQueryTest, NaiveLambda2StillWorks) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 45, .num_transactions = 150, .universe = 30,
       .item_prob = 0.3});
  Rng rng(47);
  PrivBasisOptions options;
  options.naive_lambda2 = true;
  options.single_basis_lambda_cap = 4;
  auto result = RunPb(db, 20, 2.0, rng, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->itemsets.empty());
}

}  // namespace
}  // namespace privbasis
