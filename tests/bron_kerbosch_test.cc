#include "graph/bron_kerbosch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/cancel.h"
#include "common/rng.h"

namespace privbasis {
namespace {

std::set<Itemset> AsSet(const std::vector<Itemset>& cliques) {
  return std::set<Itemset>(cliques.begin(), cliques.end());
}

TEST(BronKerboschTest, TriangleWithPendant) {
  // 0-1-2 triangle plus edge 2-3: maximal cliques {0,1,2} and {2,3}.
  ItemGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  auto cliques = FindMaximalCliques(g);
  EXPECT_EQ(AsSet(cliques),
            (std::set<Itemset>{Itemset({0, 1, 2}), Itemset({2, 3})}));
}

TEST(BronKerboschTest, CompleteGraphIsOneClique) {
  ItemGraph g;
  for (Item a = 0; a < 6; ++a) {
    for (Item b = a + 1; b < 6; ++b) g.AddEdge(a, b);
  }
  auto cliques = FindMaximalCliques(g);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], Itemset({0, 1, 2, 3, 4, 5}));
}

TEST(BronKerboschTest, EmptyGraphNoCliques) {
  ItemGraph g;
  EXPECT_TRUE(FindMaximalCliques(g).empty());
}

TEST(BronKerboschTest, IsolatedNodesAreSingletonCliques) {
  ItemGraph g;
  g.AddNode(1);
  g.AddNode(2);
  auto cliques = FindMaximalCliques(g);
  EXPECT_EQ(AsSet(cliques), (std::set<Itemset>{Itemset({1}), Itemset({2})}));
}

TEST(BronKerboschTest, MinSizeFiltersSingletons) {
  ItemGraph g;
  g.AddEdge(0, 1);
  g.AddNode(5);
  auto cliques = FindMaximalCliques(g, 2);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], Itemset({0, 1}));
}

TEST(BronKerboschTest, StarGraph) {
  // Star: center 0, leaves 1..4 -> maximal cliques are the 4 edges.
  ItemGraph g;
  for (Item leaf = 1; leaf <= 4; ++leaf) g.AddEdge(0, leaf);
  auto cliques = FindMaximalCliques(g);
  EXPECT_EQ(cliques.size(), 4u);
  for (const auto& c : cliques) {
    EXPECT_EQ(c.size(), 2u);
    EXPECT_TRUE(c.Contains(0));
  }
}

TEST(BronKerboschTest, TwoTrianglesSharingAnEdge) {
  // 0-1-2 and 1-2-3: cliques {0,1,2}, {1,2,3}.
  ItemGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  auto cliques = FindMaximalCliques(g);
  EXPECT_EQ(AsSet(cliques),
            (std::set<Itemset>{Itemset({0, 1, 2}), Itemset({1, 2, 3})}));
}

TEST(BronKerboschTest, OutputSortedBySizeThenLex) {
  ItemGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(2, 4);
  g.AddEdge(3, 4);
  auto cliques = FindMaximalCliques(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], Itemset({2, 3, 4}));  // bigger first
  EXPECT_EQ(cliques[1], Itemset({0, 1}));
}

// Reference: brute-force maximal-clique enumeration over all subsets.
std::set<Itemset> BruteForceCliques(const ItemGraph& g) {
  std::vector<Item> nodes;
  for (size_t i = 0; i < g.NumNodes(); ++i) nodes.push_back(g.NodeAt(i));
  size_t n = nodes.size();
  std::vector<Itemset> all_cliques;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    std::vector<Item> members;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) members.push_back(nodes[i]);
    }
    bool is_clique = true;
    for (size_t i = 0; i < members.size() && is_clique; ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (!g.HasEdge(members[i], members[j])) {
          is_clique = false;
          break;
        }
      }
    }
    if (is_clique) all_cliques.push_back(Itemset(members));
  }
  std::set<Itemset> maximal;
  for (const auto& c : all_cliques) {
    bool is_maximal = true;
    for (const auto& other : all_cliques) {
      if (c != other && c.IsSubsetOf(other)) {
        is_maximal = false;
        break;
      }
    }
    if (is_maximal) maximal.insert(c);
  }
  return maximal;
}

class BronKerboschPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BronKerboschPropertyTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(GetParam());
  ItemGraph g;
  const Item n = 10;
  for (Item i = 0; i < n; ++i) g.AddNode(i);
  for (Item a = 0; a < n; ++a) {
    for (Item b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.4)) g.AddEdge(a, b);
    }
  }
  EXPECT_EQ(AsSet(FindMaximalCliques(g)), BruteForceCliques(g));
  // An armed but unfired token changes nothing.
  const CancelToken far = CancelToken::AfterMs(60 * 60 * 1000);
  EXPECT_EQ(FindMaximalCliques(g, 1, &far), FindMaximalCliques(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BronKerboschPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BronKerboschTest, FiredTokenStopsEnumeration) {
  ItemGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(FindMaximalCliques(g, 1, &token).empty());
}

}  // namespace
}  // namespace privbasis
