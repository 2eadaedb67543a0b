#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace privbasis {
namespace {

TEST(LogFactorialTest, SmallValues) {
  EXPECT_NEAR(LogFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-9);
  EXPECT_NEAR(LogFactorial(10), std::log(3628800.0), 1e-8);
}

TEST(LogChooseTest, MatchesDirect) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogChoose(10, 5), std::log(252.0), 1e-9);
  EXPECT_NEAR(LogChoose(7, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogChoose(7, 7), 0.0, 1e-12);
}

TEST(LogChooseTest, KGreaterThanNIsNegInf) {
  EXPECT_EQ(LogChoose(3, 4), -std::numeric_limits<double>::infinity());
}

TEST(LogCandidateSpaceSizeTest, MatchesDirectSum) {
  // n=10, m=3: 10 + 45 + 120 = 175.
  EXPECT_NEAR(LogCandidateSpaceSize(10, 3), std::log(175.0), 1e-9);
  // m=1: just n.
  EXPECT_NEAR(LogCandidateSpaceSize(16470, 1), std::log(16470.0), 1e-9);
}

TEST(LogCandidateSpaceSizeTest, ApproximatesPaperTable2b) {
  // Paper: kosarak |U| ≈ 8.5e8 at |I|=41270, m=2.
  double log_u = LogCandidateSpaceSize(41270, 2);
  EXPECT_NEAR(std::exp(log_u), 8.5e8, 0.5e8);
  // Paper: pumsb-star |U| ≈ 1.5e9 at |I|=2088, m=3.
  log_u = LogCandidateSpaceSize(2088, 3);
  EXPECT_NEAR(std::exp(log_u) / 1.5e9, 1.0, 0.05);
}

TEST(LogCandidateSpaceSizeTest, CapsAtUniverse) {
  // m beyond n: all subsets counted once each.
  double log_u = LogCandidateSpaceSize(4, 10);
  EXPECT_NEAR(std::exp(log_u), 15.0, 1e-6);  // 2^4 − 1
}

TEST(MeanTest, Basic) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_NEAR(Mean({2.0}), 2.0, 1e-12);
  EXPECT_NEAR(Mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_NEAR(Median({5.0}), 5.0, 1e-12);
  EXPECT_NEAR(Median({3.0, 1.0, 2.0}), 2.0, 1e-12);
  EXPECT_NEAR(Median({4.0, 1.0, 3.0, 2.0}), 2.5, 1e-12);
}

TEST(MedianTest, DoesNotRequireSortedInput) {
  EXPECT_NEAR(Median({9.0, 1.0, 5.0, 3.0, 7.0}), 5.0, 1e-12);
}

TEST(SampleStdDevTest, KnownValue) {
  EXPECT_EQ(SampleStdDev({}), 0.0);
  EXPECT_EQ(SampleStdDev({1.0}), 0.0);
  // Sample stddev of {1,2,3,4}: sqrt(5/3).
  EXPECT_NEAR(SampleStdDev({1.0, 2.0, 3.0, 4.0}), std::sqrt(5.0 / 3.0),
              1e-12);
}

TEST(StandardErrorTest, ScalesWithSqrtN) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(StandardError(xs), SampleStdDev(xs) / 2.0, 1e-12);
  EXPECT_EQ(StandardError({7.0}), 0.0);
}

/// Brute-force reference: k literal `+= 1.0` steps.
double AddOnesBrute(double x, uint64_t k) {
  for (uint64_t i = 0; i < k; ++i) x += 1.0;
  return x;
}

TEST(AddOnesSequentiallyTest, MatchesBruteForceAroundBoundaries) {
  // Fractional starts crossing several power-of-two boundaries, plus the
  // 2^52/2^53 precision edges on both signs (where += 1.0 starts to
  // round), and saturated magnitudes.
  const double cases[] = {0.0,          -0.3,       0.37,
                          -127.75,      1e6 + 0.1,  0x1p52 - 2.5,
                          0x1p53 - 3.5, -0x1p53,    -0x1p53 - 2.0,
                          -0x1p60,      0x1p60,     1e15 + 0.37};
  for (double x : cases) {
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                       uint64_t{1000}}) {
      EXPECT_EQ(AddOnesSequentially(x, k), AddOnesBrute(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}

TEST(AddOnesSequentiallyTest, ExactForIntegerCounts) {
  // The BasisFreq no-noise path: counts from zero stay exact integers.
  EXPECT_EQ(AddOnesSequentially(0.0, 1u << 20), double{1u << 20});
  // Huge k on a saturated value returns quickly and matches sequential
  // semantics (every step is absorbed).
  EXPECT_EQ(AddOnesSequentially(0x1p54, uint64_t{1} << 40), 0x1p54);
}

}  // namespace
}  // namespace privbasis
