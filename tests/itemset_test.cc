#include "data/itemset.h"

#include <gtest/gtest.h>

#include <compare>
#include <unordered_set>
#include <utility>
#include <vector>

namespace privbasis {
namespace {

TEST(ItemsetTest, SortsAndDeduplicates) {
  Itemset s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 5u);
}

TEST(ItemsetTest, EmptySet) {
  Itemset s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.Contains(0));
}

TEST(ItemsetTest, FromSortedIsIdentity) {
  Itemset s = Itemset::FromSorted(std::vector<Item>{2, 4, 6});
  EXPECT_EQ(s, Itemset({6, 4, 2}));
}

TEST(ItemsetTest, Contains) {
  Itemset s({10, 20, 30});
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
  EXPECT_TRUE(s.Contains(30));
  EXPECT_FALSE(s.Contains(15));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_FALSE(s.Contains(31));
}

TEST(ItemsetTest, SubsetRelation) {
  Itemset small({1, 3});
  Itemset big({1, 2, 3, 4});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(Itemset().IsSubsetOf(small));
  EXPECT_FALSE(Itemset({5}).IsSubsetOf(big));
}

TEST(ItemsetTest, SubsetOfSpan) {
  std::vector<Item> sorted{1, 2, 3, 4};
  EXPECT_TRUE(Itemset({2, 4}).IsSubsetOf(std::span<const Item>(sorted)));
  EXPECT_FALSE(Itemset({2, 5}).IsSubsetOf(std::span<const Item>(sorted)));
}

TEST(ItemsetTest, SetOperations) {
  Itemset a({1, 2, 3});
  Itemset b({3, 4});
  EXPECT_EQ(a.Union(b), Itemset({1, 2, 3, 4}));
  EXPECT_EQ(a.Difference(b), Itemset({1, 2}));
  EXPECT_EQ(b.Difference(a), Itemset({4}));
  EXPECT_EQ(a.Union(Itemset()), a);
}

TEST(ItemsetTest, With) {
  Itemset s({1, 5});
  EXPECT_EQ(s.With(3), Itemset({1, 3, 5}));
  EXPECT_EQ(s.With(5), s);
  EXPECT_EQ(s.With(0), Itemset({0, 1, 5}));
  EXPECT_EQ(s.With(9), Itemset({1, 5, 9}));
}

TEST(ItemsetTest, Ordering) {
  EXPECT_LT(Itemset({1, 2}), Itemset({1, 3}));
  EXPECT_LT(Itemset({1}), Itemset({1, 2}));  // prefix is smaller
  EXPECT_LT(Itemset({0, 9}), Itemset({1}));
}

TEST(ItemsetTest, ToString) {
  EXPECT_EQ(Itemset({3, 1}).ToString(), "{1, 3}");
  EXPECT_EQ(Itemset().ToString(), "{}");
}

TEST(ItemsetTest, HashConsistentWithEquality) {
  ItemsetHash hash;
  EXPECT_EQ(hash(Itemset({1, 2, 3})), hash(Itemset({3, 2, 1})));
  std::unordered_set<Itemset, ItemsetHash> set;
  set.insert(Itemset({1, 2}));
  set.insert(Itemset({2, 1}));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(Itemset({1, 2})));
  EXPECT_FALSE(set.contains(Itemset({1, 3})));
}

TEST(ItemsetTest, VectorHashMatchesContent) {
  ItemVectorHash hash;
  EXPECT_EQ(hash({1, 2, 3}), hash({1, 2, 3}));
  EXPECT_NE(hash({1, 2, 3}), hash({1, 2, 4}));
}

TEST(ForEachSubsetTest, EnumeratesAllNonEmptySubsets) {
  Itemset base({1, 2, 3});
  std::vector<Itemset> seen;
  ForEachSubset(base, 0, [&](const Itemset& s) { seen.push_back(s); });
  EXPECT_EQ(seen.size(), 7u);  // 2³ − 1
  std::unordered_set<Itemset, ItemsetHash> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), 7u);
  for (const auto& s : seen) {
    EXPECT_TRUE(s.IsSubsetOf(base));
    EXPECT_FALSE(s.empty());
  }
}

TEST(ForEachSubsetTest, RespectsMaxSize) {
  Itemset base({1, 2, 3, 4});
  size_t count = 0;
  ForEachSubset(base, 2, [&](const Itemset& s) {
    EXPECT_LE(s.size(), 2u);
    ++count;
  });
  EXPECT_EQ(count, 10u);  // C(4,1) + C(4,2)
}

TEST(ForEachSubsetTest, EmptyBaseYieldsNothing) {
  size_t count = 0;
  ForEachSubset(Itemset(), 0, [&](const Itemset&) { ++count; });
  EXPECT_EQ(count, 0u);
}

// ---- inline / heap storage --------------------------------------------
//
// Up to Itemset::kInlineItems items live inside the object; longer sets
// own a heap array. Sizes 0, 1, 4, 5, 12 and 63 sit on both sides of that
// boundary and at the ForEachSubset limit.

constexpr size_t kSizes[] = {0, 1, 4, 5, 12, 63};

/// n sorted, distinct items; every size has its own content.
std::vector<Item> Items(size_t n, Item start = 1) {
  std::vector<Item> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(start + 3 * static_cast<Item>(i));
  }
  return out;
}

TEST(ItemsetStorageTest, HoldsItemsAcrossTheInlineBoundary) {
  static_assert(Itemset::kInlineItems == 4);
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    const std::vector<Item> want = Items(n);
    std::vector<Item> shuffled(want.rbegin(), want.rend());
    const Itemset s(shuffled);
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.empty(), n == 0);
    EXPECT_EQ(std::vector<Item>(s.begin(), s.end()), want);
    EXPECT_EQ(std::vector<Item>(s.items().begin(), s.items().end()), want);
    EXPECT_EQ(s, Itemset::FromSorted(want));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s[i], want[i]);
      EXPECT_TRUE(s.Contains(want[i]));
    }
    EXPECT_FALSE(s.Contains(0));
  }
}

TEST(ItemsetStorageTest, CopiesAreDeepAndIndependent) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    Itemset a = Itemset::FromSorted(Items(n));
    const Itemset b(a);
    Itemset c{99};
    c = a;
    EXPECT_EQ(b, a);
    EXPECT_EQ(c, a);
    if (n > 0) {
      EXPECT_NE(b.begin(), a.begin());
      EXPECT_NE(c.begin(), a.begin());
    }
    a = Itemset::FromSorted(Items(n + 7, 1000));  // overwrite the source
    EXPECT_EQ(b, Itemset::FromSorted(Items(n)));
    EXPECT_EQ(c, Itemset::FromSorted(Items(n)));
    c = Itemset::FromSorted(Items(2));  // heap to inline and back
    EXPECT_EQ(c, Itemset({1, 4}));
    c = b;
    EXPECT_EQ(c, b);
  }
}

TEST(ItemsetStorageTest, MovesLeaveTheSourceEmptyAndReusable) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    Itemset a = Itemset::FromSorted(Items(n));
    const Item* storage = a.begin();
    Itemset b(std::move(a));
    EXPECT_EQ(b, Itemset::FromSorted(Items(n)));
    if (n > Itemset::kInlineItems) {
      EXPECT_EQ(b.begin(), storage);  // the heap array moved, not copied
    }
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a, Itemset());
    a = Itemset({5, 6});
    EXPECT_EQ(a, Itemset({5, 6}));

    Itemset c{42};
    c = std::move(b);
    EXPECT_EQ(c, Itemset::FromSorted(Items(n)));
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
    b = c;
    EXPECT_EQ(b, c);
    const Itemset taken(std::move(c));
    const Itemset d(std::move(c));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(taken, b);
    EXPECT_TRUE(d.empty());
  }
}

TEST(ItemsetStorageTest, SelfAssignmentKeepsTheItems) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    Itemset a = Itemset::FromSorted(Items(n));
    Itemset& alias = a;
    a = alias;
    EXPECT_EQ(a, Itemset::FromSorted(Items(n)));
    a = std::move(alias);
    EXPECT_EQ(a, Itemset::FromSorted(Items(n)));
  }
}

TEST(ItemsetStorageTest, OrderingAndHashMatchVectorSemantics) {
  // Shared prefixes on both sides of the boundary: <=>, == and the hash
  // must agree with std::vector's lexicographic order and ItemVectorHash.
  const std::vector<std::vector<Item>> family = {
      {},
      {1},
      {1, 2},
      {1, 2, 3, 4},
      {1, 2, 3, 5},
      {1, 2, 3, 4, 5},
      {1, 2, 3, 4, 6},
      {2},
      Items(5),
      Items(12),
      Items(63),
      Items(12, 0)};
  for (const auto& x : family) {
    const Itemset a = Itemset::FromSorted(x);
    EXPECT_EQ(ItemsetHash{}(a), ItemVectorHash{}(x));
    for (const auto& y : family) {
      const Itemset b = Itemset::FromSorted(y);
      EXPECT_TRUE((a <=> b) == (x <=> y));
      EXPECT_EQ(a == b, x == y);
      EXPECT_EQ(a < b, x < y);
    }
  }
}

TEST(ItemsetStorageTest, SetOperationsCrossTheBoundary) {
  const Itemset four{1, 2, 3, 4};
  const Itemset five = four.With(5);
  EXPECT_EQ(five, Itemset({1, 2, 3, 4, 5}));
  EXPECT_EQ(five.Difference(Itemset{5}), four);
  EXPECT_EQ(four.Union(Itemset{0, 9}), Itemset({0, 1, 2, 3, 4, 9}));
  EXPECT_EQ(five.With(3), five);
  EXPECT_TRUE(four.IsSubsetOf(five));
  EXPECT_FALSE(five.IsSubsetOf(four));
  const Itemset big = Itemset::FromSorted(Items(12));
  EXPECT_EQ(big.Union(big), big);
}

}  // namespace
}  // namespace privbasis
