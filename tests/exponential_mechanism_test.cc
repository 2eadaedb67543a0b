#include "dp/exponential_mechanism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "test_util.h"

namespace privbasis {
namespace {

TEST(GroupedEmPoolTest, GroupsByQuality) {
  std::vector<uint64_t> qualities{5, 3, 5, 3, 3, 9};
  GroupedEmPool pool(qualities);
  EXPECT_EQ(pool.NumGroups(), 3u);
  EXPECT_EQ(pool.NumRemaining(), 6u);
  EXPECT_EQ(pool.GroupQuality(0), 9u);  // descending
  EXPECT_EQ(pool.GroupQuality(1), 5u);
  EXPECT_EQ(pool.GroupQuality(2), 3u);
}

/// The order a comparison sort gives: candidate indices by descending
/// quality, then ascending index.
std::vector<uint32_t> ReferenceOrder(const std::vector<uint64_t>& qualities) {
  std::vector<uint32_t> order(qualities.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (qualities[a] != qualities[b]) return qualities[a] > qualities[b];
    return a < b;
  });
  return order;
}

/// Checks the pool's groups against the reference order, then its member
/// order: draining every group with TakeFrom must return exactly what
/// the same swap-remove draws return on the reference order.
void ExpectMatchesReference(const std::vector<uint64_t>& qualities) {
  const GroupedEmPool probe(qualities);
  const std::vector<uint32_t> order = ReferenceOrder(qualities);
  EXPECT_EQ(DescendingOrder(qualities), order);
  size_t group = 0;
  for (size_t begin = 0; begin < order.size(); ++group) {
    size_t end = begin;
    while (end < order.size() &&
           qualities[order[end]] == qualities[order[begin]]) {
      ++end;
    }
    ASSERT_LT(group, probe.NumGroups());
    EXPECT_EQ(probe.GroupQuality(group), qualities[order[begin]]);
    EXPECT_EQ(probe.GroupBegin(group), begin);
    EXPECT_EQ(probe.GroupSize(group), end - begin);
    begin = end;
  }
  EXPECT_EQ(probe.NumGroups(), group);

  GroupedEmPool pool(qualities);
  Rng pool_rng(99), reference_rng(99);
  for (size_t g = 0; g < pool.NumGroups(); ++g) {
    const auto begin =
        order.begin() + static_cast<std::ptrdiff_t>(pool.GroupBegin(g));
    std::vector<uint32_t> members(
        begin, begin + static_cast<std::ptrdiff_t>(pool.GroupSize(g)));
    while (!members.empty()) {
      const size_t taken = pool.TakeFrom(g, pool_rng);
      const size_t pick = reference_rng.UniformInt(members.size());
      ASSERT_EQ(taken, members[pick]) << "group " << g;
      members[pick] = members.back();
      members.pop_back();
    }
  }
  EXPECT_EQ(pool.NumRemaining(), 0u);
}

/// `n` qualities below 2^bits drawn from a pool of `distinct` values, so
/// groups hold several members, plus the extremes of the range.
std::vector<uint64_t> RandomQualities(size_t n, unsigned bits,
                                      size_t distinct, uint64_t seed) {
  Rng rng(seed);
  const uint64_t limit = bits >= 64 ? UINT64_MAX : (uint64_t{1} << bits) - 1;
  std::vector<uint64_t> values{0, limit};
  while (values.size() < distinct) values.push_back(rng.Next() & limit);
  std::vector<uint64_t> qualities(n);
  for (uint64_t& q : qualities) q = values[rng.UniformInt(values.size())];
  return qualities;
}

TEST(GroupedEmPoolTest, GroupingMatchesComparisonSort) {
  ExpectMatchesReference({});
  ExpectMatchesReference({42});
  ExpectMatchesReference(std::vector<uint64_t>(100, 7));
  ExpectMatchesReference(std::vector<uint64_t>(64, 0));
  ExpectMatchesReference({0, 1, 0, 3, 0, 0, 2});
  // Qualities at and around the 11-bit digit boundaries.
  ExpectMatchesReference({2047, 2048, 2049, 0, 2048, 4194303, 4194304, 2047});
  for (unsigned bits : {11u, 22u, 33u, 64u}) {
    SCOPED_TRACE(bits);
    ExpectMatchesReference(RandomQualities(3000, bits, 40, bits));
    ExpectMatchesReference(RandomQualities(500, bits, 500, bits + 1));
  }
  ExpectMatchesReference({UINT64_MAX, 0, UINT64_MAX, UINT64_MAX - 1, 1,
                          UINT64_MAX});
}

// A pool copied from the database's memoized support order groups and
// draws exactly like one that sorts the supports itself.
TEST(GroupedEmPoolTest, MemoizedItemOrderDrawsLikeAFreshPool) {
  const TransactionDatabase db = testing::MakeRandomDb(
      {.seed = 61, .num_transactions = 400, .universe = 300,
       .item_prob = 0.6});
  EXPECT_EQ(db.ItemsBySupport(), ReferenceOrder(db.ItemSupports()));
  GroupedEmPool fresh(db.ItemSupports());
  GroupedEmPool memoized(db.ItemSupports(), db.ItemsBySupport());
  ASSERT_EQ(memoized.NumGroups(), fresh.NumGroups());
  for (size_t g = 0; g < fresh.NumGroups(); ++g) {
    EXPECT_EQ(memoized.GroupQuality(g), fresh.GroupQuality(g));
    EXPECT_EQ(memoized.GroupBegin(g), fresh.GroupBegin(g));
    EXPECT_EQ(memoized.GroupSize(g), fresh.GroupSize(g));
  }
  Rng fresh_rng(7), memoized_rng(7);
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<size_t> want,
                                 fresh.SelectK(fresh_rng, 40, 0.05));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<size_t> got,
                                 memoized.SelectK(memoized_rng, 40, 0.05));
  EXPECT_EQ(got, want);
  EXPECT_EQ(memoized_rng.Next(), fresh_rng.Next());
}

TEST(GroupedEmPoolTest, TakeFromRemovesMember) {
  std::vector<uint64_t> qualities{7, 7, 7};
  GroupedEmPool pool(qualities);
  Rng rng(15);
  std::set<size_t> taken;
  for (int i = 0; i < 3; ++i) {
    taken.insert(pool.TakeFrom(0, rng));
  }
  EXPECT_EQ(taken, (std::set<size_t>{0, 1, 2}));
  EXPECT_EQ(pool.NumRemaining(), 0u);
}

TEST(GroupedEmPoolTest, SelectKDistinctAndBiased) {
  Rng rng(17);
  // 100 candidates: indices 0..4 have count 1000, rest count 0.
  std::vector<uint64_t> qualities(100, 0);
  for (int i = 0; i < 5; ++i) qualities[i] = 1000;
  GroupedEmPool pool(qualities);
  auto r = pool.SelectK(rng, 5, /*factor=*/0.1);
  ASSERT_TRUE(r.ok());
  std::set<size_t> unique(r->begin(), r->end());
  EXPECT_EQ(unique.size(), 5u);
  for (size_t idx : *r) EXPECT_LT(idx, 5u);  // exp(100) dominance
}

TEST(GroupedEmPoolTest, MatchesUngroupedEmStatistically) {
  // Grouped selection must give the same distribution as the direct EM:
  // qualities {2, 2, 0} with factor 1 -> P(idx 2) = 1/(2e² + 1).
  Rng rng(19);
  std::vector<uint64_t> qualities{2, 2, 0};
  const int n = 150000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    GroupedEmPool pool(qualities);
    auto r = pool.SelectK(rng, 1, 1.0);
    ASSERT_TRUE(r.ok());
    low += r->front() == 2;
  }
  double expected = 1.0 / (2.0 * std::exp(2.0) + 1.0);
  EXPECT_NEAR(low / static_cast<double>(n), expected, 0.004);
}

TEST(GroupedEmPoolTest, HugeQualitiesDoNotOverflow) {
  // Count-scale qualities (the paper multiplies frequencies by N) at
  // ε = 0.5, GS = 1, non-monotone: factor ε/2.
  Rng rng(5);
  std::vector<uint64_t> qualities{1000000, 999999, 0};
  std::vector<int> histogram(3, 0);
  for (int i = 0; i < 10000; ++i) {
    GroupedEmPool pool(qualities);
    auto r = pool.SelectK(rng, 1, 0.25);
    ASSERT_TRUE(r.ok());
    ++histogram[r->front()];
  }
  EXPECT_EQ(histogram[2], 0);  // astronomically unlikely
  EXPECT_GT(histogram[0], histogram[1]);
}

TEST(GroupedEmPoolTest, SelectKRejectsOverdraw) {
  std::vector<uint64_t> qualities{1, 2};
  GroupedEmPool pool(qualities);
  Rng rng(21);
  EXPECT_FALSE(pool.SelectK(rng, 3, 1.0).ok());
  GroupedEmPool empty({});
  EXPECT_FALSE(empty.SelectK(rng, 1, 1.0).ok());
}

}  // namespace
}  // namespace privbasis
