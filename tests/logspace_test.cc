#include "common/logspace.h"

#include <gtest/gtest.h>

#include <limits>

namespace privbasis {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

TEST(GumbelMaxSamplerTest, SingleOfferWins) {
  Rng rng(7);
  GumbelMaxSampler sampler(&rng);
  EXPECT_FALSE(sampler.HasWinner());
  sampler.Offer(42, 1.5);
  ASSERT_TRUE(sampler.HasWinner());
  EXPECT_EQ(sampler.WinnerKey(), 42u);
}

TEST(GumbelMaxSamplerTest, GroupOfferEquivalentToIndividualOffers) {
  // A group of m identical candidates must win exactly as often as m
  // individually-offered candidates with the same log weight.
  Rng rng(9);
  const int n = 120000;
  int group_wins = 0;
  for (int i = 0; i < n; ++i) {
    GumbelMaxSampler sampler(&rng);
    sampler.OfferGroup(0, 0.0, 9.0);  // 9 candidates at weight 1
    sampler.Offer(1, 0.0);            // 1 candidate at weight 1
    group_wins += sampler.WinnerKey() == 0;
  }
  EXPECT_NEAR(group_wins / static_cast<double>(n), 0.9, 0.01);
}

TEST(GumbelMaxSamplerTest, ZeroCountGroupIgnored) {
  Rng rng(11);
  GumbelMaxSampler sampler(&rng);
  sampler.OfferGroup(0, 0.0, 0.0);
  EXPECT_FALSE(sampler.HasWinner());
  sampler.OfferGroup(1, kNegInf, 5.0);
  EXPECT_FALSE(sampler.HasWinner());
}

}  // namespace
}  // namespace privbasis
