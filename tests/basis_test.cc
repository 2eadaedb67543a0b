#include "core/basis.h"

#include <gtest/gtest.h>

#include "oracles.h"

namespace privbasis {
namespace {

using ::privbasis::testing::Covers;

TEST(BasisSetTest, WidthAndLength) {
  BasisSet b({Itemset({0, 1, 2}), Itemset({3, 4})});
  EXPECT_EQ(b.Width(), 2u);
  EXPECT_EQ(b.Length(), 3u);
  EXPECT_FALSE(b.Empty());
  EXPECT_TRUE(BasisSet().Empty());
  EXPECT_EQ(BasisSet().Length(), 0u);
}

TEST(BasisSetTest, Covers) {
  BasisSet b({Itemset({0, 1, 2}), Itemset({3, 4})});
  EXPECT_TRUE(Covers(b, Itemset({0, 1})));
  EXPECT_TRUE(Covers(b, Itemset({3, 4})));
  EXPECT_TRUE(Covers(b, Itemset({2})));
  EXPECT_FALSE(Covers(b, Itemset({0, 3})));  // spans two bases
  EXPECT_FALSE(Covers(b, Itemset({9})));
  EXPECT_TRUE(Covers(b, Itemset()));  // empty set is a subset of anything
}

TEST(BasisSetTest, ToStringMentionsShape) {
  BasisSet b({Itemset({0, 1})});
  std::string s = b.ToString();
  EXPECT_NE(s.find("w=1"), std::string::npos);
  EXPECT_NE(s.find("l=2"), std::string::npos);
}

}  // namespace
}  // namespace privbasis
