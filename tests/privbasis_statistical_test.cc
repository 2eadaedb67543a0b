// Statistical behaviour of the PrivBasis sub-steps that unit tests can
// only check pointwise: selection-quality trends in ε, fusion variance
// reduction, and the grouped GetLambda matching its direct counterpart.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <unordered_set>

#include "core/basis_freq.h"
#include "core/privbasis.h"
#include "engine/engine.h"
#include "data/vertical_index.h"
#include "fim/topk.h"
#include "bench_util.h"
#include "oracles.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;
using ::privbasis::bench::ScanExecutor;

TEST(PrivBasisStatisticalTest, GetLambdaMatchesDirectExponentialMechanism) {
  // GetLambda groups equal-count ranks; its selection distribution must
  // equal the direct (ungrouped) exponential mechanism over ranks.
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0, 2}, {0}, {3}});
  // Supports: 0->5? no: item0 in 4 txns, item1 in 2, item2 1, item3 1.
  const uint64_t fk1 = 2;
  const double epsilon = 1.2;
  const double n = static_cast<double>(db.NumTransactions());

  // Direct distribution over ranks (1-based), counts sorted desc: 4,2,1,1.
  std::vector<double> counts{4, 2, 1, 1};
  std::vector<double> log_weights;
  for (double c : counts) {
    log_weights.push_back(epsilon / 2.0 *
                          (n - std::abs(c - static_cast<double>(fk1))));
  }
  Rng rng(3);
  const int trials = 200000;
  std::map<uint32_t, int> grouped;
  for (int t = 0; t < trials; ++t) {
    grouped[GetLambda(db, fk1, epsilon, rng)]++;
  }
  const std::vector<double> direct =
      ::privbasis::testing::ExponentialMechanismProbabilities(log_weights);
  for (uint32_t rank = 1; rank <= 4; ++rank) {
    double pg = grouped[rank] / static_cast<double>(trials);
    EXPECT_NEAR(pg, direct[rank - 1], 0.01) << "rank " << rank;
  }
}

TEST(PrivBasisStatisticalTest, GetFreqElementsQualityImprovesWithEpsilon) {
  // Precision of the selected set (overlap with the true top) must rise
  // with the budget.
  std::vector<uint64_t> supports;
  for (int i = 0; i < 50; ++i) {
    supports.push_back(1000 - 15 * static_cast<uint64_t>(i));
  }
  auto precision_at = [&](double epsilon) {
    Rng rng(11);
    double hits = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
      auto picks = GetFreqElements(supports, 10, epsilon, true, rng);
      EXPECT_TRUE(picks.ok());
      for (size_t idx : *picks) hits += idx < 10;
    }
    return hits / (trials * 10);
  };
  double lo = precision_at(0.002);
  double hi = precision_at(1.0);
  EXPECT_GT(hi, lo + 0.2);
  EXPECT_GT(hi, 0.9);
}

TEST(PrivBasisStatisticalTest, FusionReducesEmpiricalVariance) {
  // An itemset covered by two bases must have lower empirical error
  // variance than the same itemset covered by one, at equal ε and w.
  TransactionDatabase db = MakeDb({{0, 1, 2, 3}, {0, 1}, {2, 3}, {0, 3}});
  const Itemset target({0, 1});
  VerticalIndex index(db);
  const double exact = static_cast<double>(index.SupportOf(target));

  BasisSet overlap({Itemset({0, 1, 2}), Itemset({0, 1, 3})});
  BasisSet disjoint({Itemset({0, 1, 2}), Itemset({3})});

  BasisFreqOptions options;
  const DirectCountExecutor exec = ScanExecutor(db);
  options.exec = &exec;
  auto variance_with = [&](const BasisSet& basis, uint64_t seed) {
    Rng rng(seed);
    double sum = 0, sum_sq = 0;
    const int trials = 8000;
    for (int t = 0; t < trials; ++t) {
      auto result = BasisFreq(db, basis, 0, 1.0, rng, nullptr, options);
      EXPECT_TRUE(result.ok());
      for (const auto& c : result->topk) {
        if (c.items == target) {
          double err = c.noisy_count - exact;
          sum += err;
          sum_sq += err * err;
        }
      }
    }
    double mean = sum / trials;
    return sum_sq / trials - mean * mean;
  };
  double var_overlap = variance_with(overlap, 13);
  double var_single = variance_with(disjoint, 17);
  // Equation 4 + fusion: overlap variance = v/2 of the single-coverage
  // case here (two symmetric estimates) — demand at least 30% reduction.
  EXPECT_LT(var_overlap, var_single * 0.7);
}

TEST(PrivBasisStatisticalTest, FnrDegradesGracefullyInK) {
  // With the budget fixed, asking for more itemsets costs accuracy; the
  // trend must be visible (paper Figures 1–4 across k).
  TransactionDatabase db = MakeRandomDb(
      {.seed = 19, .num_transactions = 400, .universe = 16,
       .item_prob = 0.45});
  auto fnr_at = [&](size_t k) {
    auto truth = MineTopK(db, k);
    EXPECT_TRUE(truth.ok());
    std::unordered_set<Itemset, ItemsetHash> actual;
    for (const auto& fi : truth->itemsets) actual.insert(fi.items);
    Rng rng(23);
    double missed = 0;
    const int trials = 30;
    // One warm handle + the external-Rng overload: every trial draws
    // from the continuing stream, as the pre-Engine free function did.
    auto handle = Dataset::Borrow(db);
    const QuerySpec spec = QuerySpec().WithTopK(k).WithEpsilon(0.4);
    for (int t = 0; t < trials; ++t) {
      auto result = Engine::Run(*handle, spec, rng);
      EXPECT_TRUE(result.ok());
      std::unordered_set<Itemset, ItemsetHash> released;
      for (const auto& r : result->itemsets) released.insert(r.items);
      for (const auto& items : actual) missed += !released.contains(items);
    }
    return missed / (trials * static_cast<double>(k));
  };
  double small_k = fnr_at(10);
  double large_k = fnr_at(60);
  EXPECT_LT(small_k, large_k + 0.05);
}

TEST(PrivBasisStatisticalTest, ReleasedCountsUnbiasedAtFixedBasis) {
  // For a fixed basis, BasisFreq's estimate of a covered itemset is a sum
  // of Laplace-noised bins: unbiased around the exact support.
  TransactionDatabase db = MakeRandomDb({.seed = 29, .universe = 8});
  VerticalIndex index(db);
  BasisSet basis({Itemset({0, 1, 2, 3})});
  const Itemset target({0, 1});
  const double exact = static_cast<double>(index.SupportOf(target));
  BasisFreqOptions options;
  const DirectCountExecutor exec = ScanExecutor(db);
  options.exec = &exec;
  Rng rng(31);
  double sum = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    auto result = BasisFreq(db, basis, 0, 1.0, rng, nullptr, options);
    ASSERT_TRUE(result.ok());
    for (const auto& c : result->topk) {
      if (c.items == target) sum += c.noisy_count;
    }
  }
  EXPECT_NEAR(sum / trials, exact, 0.15);
}

}  // namespace
}  // namespace privbasis
