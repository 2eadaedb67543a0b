#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "data/dataset_stats.h"
#include "data/vertical_index.h"

namespace privbasis {
namespace {

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticProfile profile = SyntheticProfile::Mushroom(0.05);
  auto a = GenerateDataset(profile, 7);
  auto b = GenerateDataset(profile, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->NumTransactions(), b->NumTransactions());
  for (size_t t = 0; t < a->NumTransactions(); ++t) {
    auto ta = a->Transaction(t);
    auto tb = b->Transaction(t);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticProfile profile = SyntheticProfile::Mushroom(0.05);
  auto a = GenerateDataset(profile, 1);
  auto b = GenerateDataset(profile, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t diffs = 0;
  for (size_t t = 0; t < a->NumTransactions(); ++t) {
    if (a->Transaction(t).size() != b->Transaction(t).size() ||
        !std::equal(a->Transaction(t).begin(), a->Transaction(t).end(),
                    b->Transaction(t).begin())) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, a->NumTransactions() / 2);
}

TEST(SyntheticTest, CategoricalTransactionsHaveOneItemPerAttribute) {
  SyntheticProfile profile = SyntheticProfile::Mushroom(0.02);
  auto db = GenerateDataset(profile, 3);
  ASSERT_TRUE(db.ok());
  size_t attrs = profile.attributes.size();
  for (size_t t = 0; t < db->NumTransactions(); ++t) {
    EXPECT_EQ(db->Transaction(t).size(), attrs);
  }
}

TEST(SyntheticTest, CategoricalItemsStayInAttributeRanges) {
  SyntheticProfile profile = SyntheticProfile::PumsbStar(0.01);
  auto db = GenerateDataset(profile, 5);
  ASSERT_TRUE(db.ok());
  // Attribute a's items occupy [offset, offset + num_values).
  std::vector<Item> offsets;
  Item offset = 0;
  for (const auto& attr : profile.attributes) {
    offsets.push_back(offset);
    offset += attr.num_values;
  }
  for (size_t t = 0; t < std::min<size_t>(db->NumTransactions(), 200); ++t) {
    auto txn = db->Transaction(t);
    for (size_t a = 0; a < txn.size(); ++a) {
      EXPECT_GE(txn[a], offsets[a]);
      EXPECT_LT(txn[a], offsets[a] + profile.attributes[a].num_values);
    }
  }
}

TEST(SyntheticTest, MarketBasketRespectsUniverse) {
  SyntheticProfile profile = SyntheticProfile::Retail(0.02);
  auto db = GenerateDataset(profile, 11);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->UniverseSize(), profile.universe_size);
}

TEST(SyntheticTest, PlantedPatternBoostsSupport) {
  // A pattern of rare items planted at 10% must have support near 10%·N,
  // vastly above the chance co-occurrence of three rank-1000 items.
  SyntheticProfile profile;
  profile.name = "planted";
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 20000;
  profile.universe_size = 5000;
  profile.zipf_exponent = 1.1;
  profile.mean_transaction_length = 6;
  profile.patterns = {{{1000, 1001, 1002}, 0.10, 0.0}};
  auto db = GenerateDataset(profile, 13);
  ASSERT_TRUE(db.ok());
  VerticalIndex index(*db);
  double freq = index.FrequencyOf(Itemset({1000, 1001, 1002}));
  EXPECT_NEAR(freq, 0.10, 0.01);
}

TEST(SyntheticTest, HeadMixtureFlattensTop) {
  // With a flat head, top-rank frequencies are much closer to each other
  // than pure Zipf would give.
  SyntheticProfile profile;
  profile.name = "headed";
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 20000;
  profile.universe_size = 100000;
  profile.zipf_exponent = 1.05;
  profile.mean_transaction_length = 20;
  profile.head_weight = 0.5;
  profile.head_size = 100;
  profile.head_exponent = 0.3;
  auto db = GenerateDataset(profile, 17);
  ASSERT_TRUE(db.ok());
  double f0 = db->ItemFrequency(0);
  double f50 = db->ItemFrequency(50);
  ASSERT_GT(f50, 0.0);
  EXPECT_LT(f0 / f50, 6.0);  // pure Zipf(1.05) ratio would be ~51^1.05 ≈ 62
}

TEST(SyntheticTest, ScaleMultipliesTransactionCount) {
  auto half = SyntheticProfile::Kosarak(0.5);
  auto full = SyntheticProfile::Kosarak(1.0);
  EXPECT_NEAR(static_cast<double>(half.num_transactions) /
                  static_cast<double>(full.num_transactions),
              0.5, 0.01);
  EXPECT_EQ(half.universe_size, full.universe_size);
}

TEST(SyntheticTest, TotalUniverseSizeCategorical) {
  auto profile = SyntheticProfile::Mushroom();
  uint32_t total = 0;
  for (const auto& a : profile.attributes) total += a.num_values;
  EXPECT_NEAR(total, 119, 5);  // paper: |I| = 119
}

TEST(SyntheticTest, RejectsZeroTransactions) {
  SyntheticProfile profile;
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 0;
  profile.universe_size = 10;
  EXPECT_FALSE(GenerateDataset(profile, 1).ok());
}

TEST(SyntheticTest, RejectsPatternOutsideUniverse) {
  SyntheticProfile profile;
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 10;
  profile.universe_size = 10;
  profile.patterns = {{{5, 20}, 0.1, 0.0}};
  EXPECT_FALSE(GenerateDataset(profile, 1).ok());
}

TEST(SyntheticTest, RejectsSingletonPattern) {
  SyntheticProfile profile;
  profile.kind = SyntheticProfile::Kind::kMarketBasket;
  profile.num_transactions = 10;
  profile.universe_size = 10;
  profile.patterns = {{{5}, 0.1, 0.0}};
  EXPECT_FALSE(GenerateDataset(profile, 1).ok());
}

TEST(SyntheticTest, RejectsCategoricalWithoutAttributes) {
  SyntheticProfile profile;
  profile.kind = SyntheticProfile::Kind::kCategorical;
  profile.num_transactions = 10;
  EXPECT_FALSE(GenerateDataset(profile, 1).ok());
}

TEST(SyntheticTest, AllPaperProfilesPresent) {
  auto profiles = SyntheticProfile::AllPaperProfiles(0.01);
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_EQ(profiles[0].name, "retail");
  EXPECT_EQ(profiles[1].name, "mushroom");
  EXPECT_EQ(profiles[2].name, "pumsb-star");
  EXPECT_EQ(profiles[3].name, "kosarak");
  EXPECT_EQ(profiles[4].name, "aol");
}

TEST(SyntheticTest, DominantValueIsModal) {
  // At 2% scale the mushroom attribute-0 dominant value (p=0.995) must
  // dominate empirically.
  auto db = GenerateDataset(SyntheticProfile::Mushroom(0.05), 23);
  ASSERT_TRUE(db.ok());
  EXPECT_GT(db->ItemFrequency(0), 0.97);
}

}  // namespace
}  // namespace privbasis
