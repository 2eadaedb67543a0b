#include "dp/order_statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/distributions.h"
#include "oracles.h"

namespace privbasis {
namespace {

using ::privbasis::testing::LaplaceCdf;

TEST(OrderStatisticsTest, EmitsDescendingValues) {
  Rng rng(1);
  LaplaceTopOrderStatistics stream(1000, 1.0);
  double prev = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(stream.HasNext());
    double x = stream.Next(rng);
    EXPECT_LE(x, prev);
    prev = x;
  }
  EXPECT_FALSE(stream.HasNext());
}

TEST(OrderStatisticsTest, SingleSampleIsPlainLaplace) {
  // n = 1: the "maximum" is just one Laplace draw; check mean/variance.
  Rng rng(3);
  double sum = 0, sum_sq = 0;
  const int trials = 300000;
  for (int t = 0; t < trials; ++t) {
    LaplaceTopOrderStatistics stream(1, 2.0);
    double x = stream.Next(rng);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / trials;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / trials - mean * mean, 8.0, 0.3);
}

TEST(OrderStatisticsTest, MaximumMatchesDirectSimulation) {
  // Compare the streamed maximum of n=50 iid Laplace(1) with the max of
  // 50 direct draws, via the empirical mean of the maxima.
  Rng rng(5);
  const int trials = 40000;
  double stream_sum = 0, direct_sum = 0;
  for (int t = 0; t < trials; ++t) {
    LaplaceTopOrderStatistics stream(50, 1.0);
    stream_sum += stream.Next(rng);
    double best = -1e300;
    for (int i = 0; i < 50; ++i) {
      best = std::max(best, SampleLaplace(rng, 1.0));
    }
    direct_sum += best;
  }
  EXPECT_NEAR(stream_sum / trials, direct_sum / trials, 0.03);
}

TEST(OrderStatisticsTest, SecondMaximumMatchesDirect) {
  Rng rng(7);
  const int trials = 30000;
  double stream_sum = 0, direct_sum = 0;
  for (int t = 0; t < trials; ++t) {
    LaplaceTopOrderStatistics stream(20, 1.0);
    stream.Next(rng);
    stream_sum += stream.Next(rng);  // second largest
    std::vector<double> xs(20);
    for (auto& x : xs) x = SampleLaplace(rng, 1.0);
    std::nth_element(xs.begin(), xs.begin() + 1, xs.end(),
                     std::greater<>());
    direct_sum += xs[1];
  }
  EXPECT_NEAR(stream_sum / trials, direct_sum / trials, 0.03);
}

TEST(OrderStatisticsTest, MaxCdfIsFToTheN) {
  // P(max ≤ x) = F(x)^n: check at x = 2 for n = 100.
  Rng rng(9);
  const int trials = 100000;
  int below = 0;
  for (int t = 0; t < trials; ++t) {
    LaplaceTopOrderStatistics stream(100, 1.0);
    below += stream.Next(rng) <= 2.0;
  }
  double expected = std::pow(LaplaceCdf(2.0, 1.0), 100.0);
  EXPECT_NEAR(below / static_cast<double>(trials), expected, 0.005);
}

TEST(OrderStatisticsTest, HugeNStaysFinite) {
  Rng rng(11);
  LaplaceTopOrderStatistics stream(1'000'000'000'000ULL, 1.0);
  double x = stream.Next(rng);
  EXPECT_TRUE(std::isfinite(x));
  // Max of 10^12 samples concentrates near ln(n/2) ≈ 27.
  EXPECT_GT(x, 20.0);
  EXPECT_LT(x, 40.0);
}

}  // namespace
}  // namespace privbasis
