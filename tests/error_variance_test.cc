#include "core/error_variance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles.h"

namespace privbasis {
namespace {

using ::privbasis::testing::AverageCaseEv;
using ::privbasis::testing::CombineVarianceUnits;

TEST(VarianceUnitsTest, PowersOfTwo) {
  // nv = 2^{|Bi| − |X|} (Algorithm 1, line 16).
  EXPECT_EQ(VarianceUnits(3, 3), 1.0);
  EXPECT_EQ(VarianceUnits(3, 2), 2.0);
  EXPECT_EQ(VarianceUnits(3, 1), 4.0);
  EXPECT_EQ(VarianceUnits(10, 1), 512.0);
  EXPECT_EQ(VarianceUnits(0, 0), 1.0);
}

TEST(CombineVarianceUnitsTest, TwoEstimates) {
  // v1·v2/(v1+v2).
  std::vector<double> units{2.0, 2.0};
  EXPECT_NEAR(CombineVarianceUnits(units), 1.0, 1e-12);
  units = {1.0, 3.0};
  EXPECT_NEAR(CombineVarianceUnits(units), 0.75, 1e-12);
}

TEST(CombineVarianceUnitsTest, SingleEstimateUnchanged) {
  std::vector<double> units{7.0};
  EXPECT_NEAR(CombineVarianceUnits(units), 7.0, 1e-12);
}

TEST(CombineVarianceUnitsTest, EmptyIsInfinite) {
  EXPECT_TRUE(std::isinf(CombineVarianceUnits({})));
}

TEST(CombineVarianceUnitsTest, OrderIndependent) {
  std::vector<double> a{1.0, 2.0, 4.0};
  std::vector<double> b{4.0, 1.0, 2.0};
  EXPECT_NEAR(CombineVarianceUnits(a), CombineVarianceUnits(b), 1e-12);
}

TEST(CombineVarianceUnitsTest, PairwiseFoldMatchesHarmonic) {
  // Folding v <- v·u/(v+u) pairwise equals the harmonic composition.
  std::vector<double> units{2.0, 3.0, 6.0};
  double folded = units[0];
  for (size_t i = 1; i < units.size(); ++i) {
    folded = folded * units[i] / (folded + units[i]);
  }
  EXPECT_NEAR(CombineVarianceUnits(units), folded, 1e-12);
  EXPECT_NEAR(folded, 1.0, 1e-12);  // 1/(1/2+1/3+1/6)
}

TEST(CombineVarianceUnitsTest, FusionNeverWorseThanBest) {
  std::vector<double> units{5.0, 100.0};
  double combined = CombineVarianceUnits(units);
  EXPECT_LT(combined, 5.0);
}

TEST(AverageCaseEvTest, SingleBasisSingleQuery) {
  BasisSet basis({Itemset({0, 1, 2})});
  std::vector<Itemset> queries{Itemset({0})};
  // w=1: w²·2^{3−1} = 4.
  EXPECT_NEAR(AverageCaseEv(basis, queries), 4.0, 1e-12);
}

TEST(AverageCaseEvTest, WidthSquaredScaling) {
  // Same geometry, doubled width: EV scales by w².
  BasisSet one({Itemset({0, 1})});
  BasisSet two({Itemset({0, 1}), Itemset({2, 3})});
  std::vector<Itemset> queries{Itemset({0})};
  EXPECT_NEAR(AverageCaseEv(two, queries) / AverageCaseEv(one, queries), 4.0,
              1e-12);
}

TEST(AverageCaseEvTest, MultiCoverageReducesEv) {
  // A query covered by two bases fuses estimates and beats single
  // coverage at the same width.
  BasisSet overlap({Itemset({0, 1}), Itemset({0, 2})});
  BasisSet disjoint({Itemset({0, 1}), Itemset({2, 3})});
  std::vector<Itemset> queries{Itemset({0})};
  EXPECT_LT(AverageCaseEv(overlap, queries),
            AverageCaseEv(disjoint, queries));
}

TEST(AverageCaseEvTest, UncoveredQueryIsInfinite) {
  BasisSet basis({Itemset({0, 1})});
  std::vector<Itemset> queries{Itemset({5})};
  EXPECT_TRUE(std::isinf(AverageCaseEv(basis, queries)));
}

TEST(AverageCaseEvTest, EmptyQueriesZero) {
  BasisSet basis({Itemset({0})});
  EXPECT_EQ(AverageCaseEv(basis, {}), 0.0);
}

TEST(AverageCaseEvTest, TripleGroupingBeatsSingletons) {
  // §4.2: for k individual items, bases of size 3 reduce error variance
  // vs one singleton basis per item (2^{l−1}/l² minimal at l = 3).
  std::vector<Itemset> queries;
  std::vector<Itemset> singleton_bases;
  for (Item i = 0; i < 12; ++i) {
    queries.push_back(Itemset({i}));
    singleton_bases.push_back(Itemset({i}));
  }
  std::vector<Itemset> triple_bases;
  for (Item i = 0; i < 12; i += 3) {
    triple_bases.push_back(Itemset({i, static_cast<Item>(i + 1),
                                    static_cast<Item>(i + 2)}));
  }
  double ev_singleton = AverageCaseEv(BasisSet(singleton_bases), queries);
  double ev_triples = AverageCaseEv(BasisSet(triple_bases), queries);
  // Paper: ratio (2^{3−1}/3²) = 4/9 of the singleton EV.
  EXPECT_NEAR(ev_triples / ev_singleton, 4.0 / 9.0, 1e-9);
}

}  // namespace
}  // namespace privbasis
