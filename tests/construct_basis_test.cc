#include "core/construct_basis.h"

#include <gtest/gtest.h>

#include <chrono>

#include "common/cancel.h"
#include "fim/fpgrowth.h"
#include "graph/bron_kerbosch.h"
#include "oracles.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::AverageCaseEv;
using ::privbasis::testing::Covers;
using ::privbasis::testing::MakeRandomDb;

TEST(ConstructBasisTest, SinglePairYieldsOneBasis) {
  auto basis = ConstructBasisSet({0, 1}, {Itemset({0, 1})});
  ASSERT_TRUE(basis.ok());
  EXPECT_TRUE(Covers(*basis, Itemset({0, 1})));
  EXPECT_TRUE(Covers(*basis, Itemset({0})));
}

TEST(ConstructBasisTest, LooseItemsPackedInTriples) {
  // 7 items, no pairs: ⌈7/3⌉ = 3 initial groups; the EV-driven
  // redistribution may dissolve small groups into others (width beats
  // length while 2^{l−1}/l² stays small), but every item stays covered
  // and no basis exceeds the length cap.
  auto basis = ConstructBasisSet({0, 1, 2, 3, 4, 5, 6}, {});
  ASSERT_TRUE(basis.ok());
  for (Item i = 0; i < 7; ++i) {
    EXPECT_TRUE(Covers(*basis, Itemset({i}))) << i;
  }
  EXPECT_LE(basis->Width(), 3u);
  EXPECT_LE(basis->Length(), 12u);
}

TEST(ConstructBasisTest, CliquesBecomeBases) {
  // Pairs forming a triangle {0,1,2} plus the edge {3,4}.
  std::vector<Itemset> pairs{Itemset({0, 1}), Itemset({0, 2}),
                             Itemset({1, 2}), Itemset({3, 4})};
  auto basis = ConstructBasisSet({0, 1, 2, 3, 4}, pairs);
  ASSERT_TRUE(basis.ok());
  EXPECT_TRUE(Covers(*basis, Itemset({0, 1, 2})));
  EXPECT_TRUE(Covers(*basis, Itemset({3, 4})));
  for (const auto& pair : pairs) {
    EXPECT_TRUE(Covers(*basis, pair)) << pair.ToString();
  }
}

TEST(ConstructBasisTest, RespectsMaxLength) {
  // A large clique cannot be merged beyond the cap.
  std::vector<Item> items;
  std::vector<Itemset> pairs;
  for (Item i = 0; i < 10; ++i) {
    items.push_back(i);
    for (Item j = i + 1; j < 10; ++j) pairs.push_back(Itemset({i, j}));
  }
  ConstructBasisOptions options;
  options.max_basis_length = 12;
  auto basis = ConstructBasisSet(items, pairs, options);
  ASSERT_TRUE(basis.ok());
  EXPECT_LE(basis->Length(), 12u);
  EXPECT_TRUE(Covers(*basis, Itemset(items)));  // the 10-clique itself
}

TEST(ConstructBasisTest, OversizedCliqueSplitCoversAllEdges) {
  // An 8-clique under a length cap of 4 must be split into bases of
  // length <= 4 that still cover every pair (the queries P holds).
  std::vector<Item> items;
  std::vector<Itemset> pairs;
  for (Item i = 0; i < 8; ++i) {
    items.push_back(i);
    for (Item j = i + 1; j < 8; ++j) pairs.push_back(Itemset({i, j}));
  }
  ConstructBasisOptions options;
  options.max_basis_length = 4;
  auto basis = ConstructBasisSet(items, pairs, options);
  ASSERT_TRUE(basis.ok());
  EXPECT_LE(basis->Length(), 4u);
  for (const auto& pair : pairs) {
    EXPECT_TRUE(Covers(*basis, pair)) << pair.ToString();
  }
  for (Item i = 0; i < 8; ++i) {
    EXPECT_TRUE(Covers(*basis, Itemset({i})));
  }
}

TEST(ConstructBasisTest, HardLengthCapAlwaysHolds) {
  // Random graphs, tight cap: no basis may ever exceed it.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<Item> items;
    std::vector<Itemset> pairs;
    for (Item i = 0; i < 14; ++i) items.push_back(i);
    for (Item i = 0; i < 14; ++i) {
      for (Item j = i + 1; j < 14; ++j) {
        if (rng.Bernoulli(0.5)) pairs.push_back(Itemset({i, j}));
      }
    }
    ConstructBasisOptions options;
    options.max_basis_length = 5;
    auto basis = ConstructBasisSet(items, pairs, options);
    ASSERT_TRUE(basis.ok());
    EXPECT_LE(basis->Length(), 5u) << "seed " << seed;
    for (const auto& pair : pairs) {
      EXPECT_TRUE(Covers(*basis, pair)) << pair.ToString();
    }
  }
}

TEST(ConstructBasisTest, EmptyInputs) {
  auto basis = ConstructBasisSet({}, {});
  ASSERT_TRUE(basis.ok());
  EXPECT_TRUE(basis->Empty());
}

TEST(ConstructBasisTest, RejectsNonPairs) {
  EXPECT_FALSE(ConstructBasisSet({0, 1, 2}, {Itemset({0, 1, 2})}).ok());
  EXPECT_FALSE(ConstructBasisSet({0}, {Itemset({0})}).ok());
}

TEST(ConstructBasisTest, RejectsTinyLengthCap) {
  ConstructBasisOptions options;
  options.max_basis_length = 2;
  EXPECT_FALSE(ConstructBasisSet({0, 1}, {}, options).ok());
}

TEST(ConstructBasisTest, MergingNeverIncreasesEv) {
  // The returned basis set's average-case EV over F ∪ P must be no worse
  // than the un-merged cliques + triples construction.
  std::vector<Item> items{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<Itemset> pairs{Itemset({0, 1}), Itemset({1, 2}),
                             Itemset({3, 4})};
  auto basis = ConstructBasisSet(items, pairs);
  ASSERT_TRUE(basis.ok());

  // Reference: raw maximal cliques + triples of loose items.
  ItemGraph graph = ItemGraph::FromItemsAndPairs(items, pairs);
  std::vector<Itemset> raw = FindMaximalCliques(graph, 2);
  raw.push_back(Itemset({5, 6, 7}));
  BasisSet unoptimized(raw);

  std::vector<Itemset> queries;
  for (Item it : items) queries.push_back(Itemset({it}));
  for (const auto& p : pairs) queries.push_back(p);
  EXPECT_LE(AverageCaseEv(*basis, queries),
            AverageCaseEv(unoptimized, queries) + 1e-9);
}

// The paper's coverage invariant (Propositions 4 + 5): a basis set built
// from the exact θ-frequent items and pairs covers every exact θ-frequent
// itemset.
class CoveragePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoveragePropertyTest, CoversAllThetaFrequentItemsets) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = GetParam(), .num_transactions = 80, .universe = 12,
       .item_prob = 0.4});
  const uint64_t theta = 12;
  auto all = MineFpGrowth(db, {.min_support = theta});
  ASSERT_TRUE(all.ok());

  std::vector<Item> freq_items;
  std::vector<Itemset> freq_pairs;
  for (const auto& fi : all->itemsets) {
    if (fi.items.size() == 1) freq_items.push_back(fi.items[0]);
    if (fi.items.size() == 2) freq_pairs.push_back(fi.items);
  }
  auto basis = ConstructBasisSet(freq_items, freq_pairs);
  ASSERT_TRUE(basis.ok());
  for (const auto& fi : all->itemsets) {
    EXPECT_TRUE(Covers(*basis, fi.items))
        << "uncovered θ-frequent itemset " << fi.items.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveragePropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ConstructBasisTest, DuplicateItemsHandled) {
  auto basis = ConstructBasisSet({0, 0, 1, 1}, {});
  ASSERT_TRUE(basis.ok());
  EXPECT_TRUE(Covers(*basis, Itemset({0})));
  EXPECT_TRUE(Covers(*basis, Itemset({1})));
  // No item may appear in two B2 groups.
  size_t zero_count = 0;
  for (const auto& b : basis->bases()) zero_count += b.Contains(0);
  EXPECT_EQ(zero_count, 1u);
}

// Line 2 honours the token. A Moon–Moser graph (complete multipartite,
// parts of 3) on 60 nodes has 3^20 ≈ 3.5e9 maximal cliques, so an
// enumeration that ignored the token could not finish in the bound.
TEST(ConstructBasisTest, CancelStopsCliqueEnumeration) {
  constexpr Item kNodes = 60;
  std::vector<Item> items;
  std::vector<Itemset> pairs;
  for (Item a = 0; a < kNodes; ++a) {
    items.push_back(a);
    for (Item b = a + 1; b < kNodes; ++b) {
      if (a / 3 != b / 3) pairs.push_back(Itemset({a, b}));
    }
  }
  const CancelToken token = CancelToken::AfterMs(5);
  const auto start = std::chrono::steady_clock::now();
  auto basis = ConstructBasisSet(items, pairs, {.cancel = &token});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(basis.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace privbasis
