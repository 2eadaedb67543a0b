#include "core/consistency.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/basis_freq.h"
#include "data/vertical_index.h"
#include "bench_util.h"
#include "test_util.h"

namespace privbasis {
namespace {

double CountOf(const std::vector<NoisyItemset>& released,
               const Itemset& items) {
  for (const auto& r : released) {
    if (r.items == items) return r.noisy_count;
  }
  ADD_FAILURE() << items.ToString() << " not in release";
  return 0;
}

TEST(ConsistencyTest, DetectsViolations) {
  std::vector<NoisyItemset> release{
      {Itemset({0}), 10.0},
      {Itemset({0, 1}), 15.0},  // superset above subset: violation
      {Itemset({1}), 20.0},
  };
  EXPECT_EQ(CountMonotoneViolations(release), 1u);
}

TEST(ConsistencyTest, CleanReleaseUntouched) {
  std::vector<NoisyItemset> release{
      {Itemset({0}), 10.0},
      {Itemset({1}), 8.0},
      {Itemset({0, 1}), 5.0},
  };
  EXPECT_EQ(CountMonotoneViolations(release), 0u);
  auto copy = release;
  EXPECT_EQ(EnforceMonotoneConsistency(&copy), 0u);
  for (size_t i = 0; i < release.size(); ++i) {
    EXPECT_NEAR(copy[i].noisy_count, release[i].noisy_count, 1e-12);
  }
}

TEST(ConsistencyTest, RepairsToMonotone) {
  std::vector<NoisyItemset> release{
      {Itemset({0}), 10.0},
      {Itemset({1}), 4.0},
      {Itemset({0, 1}), 15.0},
      {Itemset({0, 1, 2}), 20.0},
      {Itemset({2}), 1.0},
  };
  size_t violations = EnforceMonotoneConsistency(&release);
  EXPECT_GT(violations, 0u);
  EXPECT_EQ(CountMonotoneViolations(release), 0u);
}

TEST(ConsistencyTest, ClampsNegativeCounts) {
  std::vector<NoisyItemset> release{
      {Itemset({0}), -3.0},
      {Itemset({0, 1}), -7.0},
  };
  EnforceMonotoneConsistency(&release);
  for (const auto& r : release) {
    EXPECT_GE(r.noisy_count, 0.0);
  }
  EXPECT_EQ(CountMonotoneViolations(release), 0u);
}

TEST(ConsistencyTest, PreservesValuesWithinEnvelope) {
  // A chain 30 >= 20 >= 10 is already monotone; the repair must be the
  // identity on it even inside a bigger release.
  std::vector<NoisyItemset> release{
      {Itemset({0}), 30.0},
      {Itemset({0, 1}), 20.0},
      {Itemset({0, 1, 2}), 10.0},
  };
  EnforceMonotoneConsistency(&release);
  EXPECT_NEAR(CountOf(release, Itemset({0})), 30.0, 1e-12);
  EXPECT_NEAR(CountOf(release, Itemset({0, 1})), 20.0, 1e-12);
  EXPECT_NEAR(CountOf(release, Itemset({0, 1, 2})), 10.0, 1e-12);
}

// Property: after repair, every randomized release is monotone, and the
// repair never moves a value outside [min, max] of the original chain.
class ConsistencyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyPropertyTest, AlwaysMonotoneAfterRepair) {
  Rng rng(GetParam());
  // Random family: subsets of {0..5} with random values.
  std::vector<NoisyItemset> release;
  for (uint64_t mask = 1; mask < 64; ++mask) {
    if (!rng.Bernoulli(0.5)) continue;
    std::vector<Item> items;
    for (Item i = 0; i < 6; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    release.push_back(NoisyItemset{Itemset(std::move(items)),
                                   rng.NextDouble() * 100 - 10});
  }
  EnforceMonotoneConsistency(&release);
  EXPECT_EQ(CountMonotoneViolations(release), 0u);
  for (const auto& r : release) EXPECT_GE(r.noisy_count, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ConsistencyTest, ImprovesAccuracyOnBasisFreqRelease) {
  // Statistical: repairing a noisy BasisFreq release should not increase
  // (and typically decreases) the total absolute error against the exact
  // counts.
  TransactionDatabase db = testing::MakeRandomDb(
      {.seed = 5, .num_transactions = 80, .universe = 10, .item_prob = 0.5});
  VerticalIndex index(db);
  BasisSet basis({Itemset({0, 1, 2, 3, 4})});
  BasisFreqOptions options;
  const DirectCountExecutor exec = bench::ScanExecutor(db);
  options.exec = &exec;
  Rng rng(7);
  double raw_error = 0, repaired_error = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto result = BasisFreq(db, basis, 0, 0.3, rng, nullptr, options);
    ASSERT_TRUE(result.ok());
    auto repaired = result->topk;
    EnforceMonotoneConsistency(&repaired);
    for (size_t i = 0; i < result->topk.size(); ++i) {
      double exact =
          static_cast<double>(index.SupportOf(result->topk[i].items));
      raw_error += std::abs(result->topk[i].noisy_count - exact);
      exact = static_cast<double>(index.SupportOf(repaired[i].items));
      repaired_error += std::abs(repaired[i].noisy_count - exact);
    }
  }
  EXPECT_LT(repaired_error, raw_error * 1.02);
}

TEST(ConsistencyTest, EmptyRelease) {
  std::vector<NoisyItemset> release;
  EXPECT_EQ(EnforceMonotoneConsistency(&release), 0u);
  EXPECT_EQ(CountMonotoneViolations({}), 0u);
}

}  // namespace
}  // namespace privbasis
