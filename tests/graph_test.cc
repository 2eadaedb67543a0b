#include "graph/graph.h"

#include <gtest/gtest.h>

namespace privbasis {
namespace {

TEST(GraphTest, AddNodesAndEdges) {
  ItemGraph g;
  g.AddNode(5);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasNode(5));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 5));
}

TEST(GraphTest, EdgeIdempotent) {
  ItemGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, SelfLoopIgnored) {
  ItemGraph g;
  g.AddEdge(3, 3);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumNodes(), 0u);
}

TEST(GraphTest, FromItemsAndPairs) {
  std::vector<Item> items{1, 2, 3, 4};
  std::vector<Itemset> pairs{Itemset({1, 2}), Itemset({2, 3})};
  ItemGraph g = ItemGraph::FromItemsAndPairs(items, pairs);
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasNode(4));  // isolated node kept
}

TEST(GraphTest, PairEndpointsOutsideItemsAdded) {
  ItemGraph g = ItemGraph::FromItemsAndPairs({1}, {Itemset({8, 9})});
  EXPECT_TRUE(g.HasNode(8));
  EXPECT_TRUE(g.HasNode(9));
  EXPECT_TRUE(g.HasEdge(8, 9));
}

TEST(GraphTest, DenseIndexAccess) {
  ItemGraph g;
  g.AddEdge(100, 200);
  EXPECT_EQ(g.NodeAt(0), 100u);
  EXPECT_EQ(g.NodeAt(1), 200u);
  EXPECT_TRUE(g.HasEdgeByIndex(0, 1));
}

}  // namespace
}  // namespace privbasis
