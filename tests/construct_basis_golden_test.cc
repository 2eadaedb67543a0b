// Golden pins for ConstructBasisSet: the exact output BasisSet — which
// bases, their items and their order — for fixed (F, P) inputs. The
// construction is post-processing whose output feeds BasisFreq's noise
// draws in basis order, so any drift here changes every release at a
// given seed. The expectations were recorded from the straightforward
// full-rescan implementation of Algorithm 2; an optimized construction
// must reproduce them bit for bit.
//
// Inputs:
//   - the (F, P) a kosarak-profile (scale 0.05) k=300 query hands to
//     the construction (λ = 62, λ2 = 129), under caps ℓ ∈ {4, 5, 12};
//   - seeded hub-skewed graphs at that shape and at a k=800 size
//     (λ = 160, λ2 = 339), where small caps force oversized-clique
//     splits;
//   - pair endpoints missing from F, F-only inputs, duplicate pairs.
//
// An unfired cancel token leaves the pins unchanged; a fired one cancels.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/construct_basis.h"

namespace privbasis {
namespace {

// ---- inputs ------------------------------------------------------------

// The frequent items and pairs of one kosarak-profile (scale 0.05) k=300
// query (privbasis_cli --profile kosarak --scale 0.05 --k 300), in the
// order the exponential mechanism picked them.
const std::vector<Item> kKosarakItems = {
    0,     1,     2,     3,     5,     4,     6,     7,     8,     1907,
    31368, 17,    21645, 11,    35538, 14,    26786, 9,     10,    15,
    39426, 32850, 12,    40439, 141,   40993, 38214, 5861,  26982, 25684,
    24092, 11664, 19,    37645, 13,    24268, 111,   27475, 21843, 7163,
    30622, 34652, 2808,  20,    34,    5326,  6337,  24216, 40398, 20807,
    28019, 19407, 33336, 22,    3853,  36002, 18,    32194, 34014, 33266,
    39919, 21287};

const std::vector<std::pair<Item, Item>> kKosarakPairs = {
    {0, 1},         {0, 2},         {0, 3},         {0, 4},
    {1, 2},         {1, 3},         {0, 5},         {1, 11},
    {1, 5},         {0, 6},         {2, 4},         {0, 8},
    {0, 7},         {2, 15},        {0, 9},         {3, 5326},
    {1, 4},         {2, 5},         {2, 3},         {0, 10},
    {2, 8},         {28019, 37645}, {1, 8},         {0, 22},
    {24092, 39919}, {2, 7},         {1, 7},         {8, 17},
    {1, 15},        {22, 111},      {17, 19},       {3, 36002},
    {3, 19407},     {1, 6},         {30622, 40439}, {5, 34014},
    {0, 14},        {1907, 7163},   {0, 15},        {0, 13},
    {18, 27475},    {13, 34652},    {1, 12},        {10, 34652},
    {0, 11},        {3, 4},         {1, 9},         {3, 8},
    {5, 34652},     {2808, 3853},   {0, 20},        {7, 3853},
    {0, 12},        {3, 13},        {4, 34},        {8, 13},
    {1, 14},        {15, 38214},    {1, 22},        {15, 24092},
    {20, 141},      {6, 31368},     {26786, 30622}, {4, 24092},
    {18, 33336},    {11, 11664},    {21287, 37645}, {21287, 24216},
    {17, 7163},     {6337, 32850},  {21287, 36002}, {5, 11},
    {14, 24268},    {2, 34652},     {12, 39919},    {141, 25684},
    {7, 20807},     {3, 5},         {26786, 36002}, {6, 37645},
    {7, 22},        {19407, 32194}, {15, 19},       {7, 11},
    {3853, 19407},  {111, 33336},   {24268, 37645}, {13, 21843},
    {9, 39426},     {141, 6337},    {6, 13},        {34, 24092},
    {19, 24092},    {8, 7163},      {32194, 39426}, {15, 19407},
    {20807, 32850}, {4, 7},         {36002, 37645}, {4, 5},
    {5, 35538},     {19, 40398},    {3, 37645},     {13, 5326},
    {7163, 40993},  {20, 2808},     {3853, 20807},  {4, 3853},
    {22, 40993},    {17, 24216},    {5, 14},        {1, 13},
    {5, 21287},     {7, 33336},     {1, 10},        {28019, 34014},
    {24092, 25684}, {1, 34},        {22, 6337},     {26786, 27475},
    {0, 27475},     {31368, 32850}, {3, 22},        {7, 26982},
    {1, 32850},     {11, 24268},    {2, 26786},     {0, 24268},
    {19, 20807}};

std::vector<Itemset> ToItemsets(
    const std::vector<std::pair<Item, Item>>& pairs) {
  std::vector<Itemset> out;
  out.reserve(pairs.size());
  for (auto [a, b] : pairs) out.push_back(Itemset{a, b});
  return out;
}

struct Shape {
  uint64_t seed = 1;
  size_t num_items = 62;
  size_t num_pairs = 129;
  /// Fraction of pairs whose second endpoint is an item outside F.
  double missing_endpoint_frac = 0.0;
  /// Fraction of pairs that repeat an earlier pair.
  double duplicate_frac = 0.0;
};

struct Input {
  std::vector<Item> items;
  std::vector<Itemset> pairs;
};

/// A hub-skewed random (F, P), shaped like the exponential mechanism's
/// picks on a skewed dataset: F is drawn from a sparse id space in pick
/// order, and pair endpoints concentrate on F's first (most frequent)
/// items, so the graph has a few hubs inside overlapping cliques plus a
/// tail of isolated edges.
Input MakeInput(const Shape& shape) {
  Rng rng(shape.seed);
  constexpr uint64_t kUniverse = 50000;
  Input in;
  std::unordered_set<Item> in_f;
  while (in.items.size() < shape.num_items) {
    const auto item = static_cast<Item>(rng.UniformInt(kUniverse));
    if (in_f.insert(item).second) in.items.push_back(item);
  }
  auto skewed_pick = [&]() {
    const double u = rng.NextDouble();
    return in.items[static_cast<size_t>(u * u * u *
                                        static_cast<double>(shape.num_items))];
  };
  std::unordered_set<uint64_t> seen;
  size_t attempts = 0;
  while (in.pairs.size() < shape.num_pairs && ++attempts < 1000000) {
    if (!in.pairs.empty() && rng.Bernoulli(shape.duplicate_frac)) {
      in.pairs.push_back(in.pairs[rng.UniformInt(in.pairs.size())]);
      continue;
    }
    const Item a = skewed_pick();
    Item b;
    if (rng.Bernoulli(shape.missing_endpoint_frac)) {
      b = static_cast<Item>(kUniverse + rng.UniformInt(shape.num_items));
    } else if (rng.Bernoulli(0.7)) {
      b = skewed_pick();
    } else {
      b = in.items[rng.UniformInt(shape.num_items)];
    }
    if (a == b) continue;
    const uint64_t key = (uint64_t{std::min(a, b)} << 32) | std::max(a, b);
    if (!seen.insert(key).second) continue;
    in.pairs.push_back(Itemset{a, b});
  }
  return in;
}

// ---- the pin -------------------------------------------------------------

/// FNV-1a over the width and, per basis in order, its size and items.
uint64_t Digest(const BasisSet& basis_set) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(basis_set.Width());
  for (const Itemset& basis : basis_set.bases()) {
    mix(basis.size());
    for (Item item : basis) mix(item);
  }
  return h;
}

struct Golden {
  size_t width;
  size_t length;
  uint64_t digest;
};

void ExpectGolden(const std::vector<Item>& items,
                  const std::vector<Itemset>& pairs, size_t cap,
                  const Golden& want, const CancelToken* cancel = nullptr) {
  ConstructBasisOptions options;
  options.max_basis_length = cap;
  options.cancel = cancel;
  auto basis_set = ConstructBasisSet(items, pairs, options);
  ASSERT_TRUE(basis_set.ok()) << basis_set.status().ToString();
  EXPECT_EQ(basis_set->Width(), want.width);
  EXPECT_EQ(basis_set->Length(), want.length);
  EXPECT_EQ(Digest(*basis_set), want.digest)
      << "cap " << cap << ": " << basis_set->ToString();
}

void ExpectGolden(const Shape& shape, size_t cap, const Golden& want) {
  Input in = MakeInput(shape);
  ExpectGolden(in.items, in.pairs, cap, want);
}

TEST(ConstructBasisGoldenTest, KosarakK300Cap12) {
  ExpectGolden(kKosarakItems, ToItemsets(kKosarakPairs), 12,
               {43, 6, 0x91cdbf1d5e7b5ba0ULL});
}

TEST(ConstructBasisGoldenTest, KosarakK300Cap5) {
  ExpectGolden(kKosarakItems, ToItemsets(kKosarakPairs), 5,
               {43, 5, 0x7d05741cd99914baULL});
}

TEST(ConstructBasisGoldenTest, KosarakK300Cap4) {
  ExpectGolden(kKosarakItems, ToItemsets(kKosarakPairs), 4,
               {51, 4, 0xe1b647a389ac45ffULL});
}

TEST(ConstructBasisGoldenTest, K300ShapeSeeds) {
  const Golden want[3][3] = {
      // cap 12, cap 5, cap 4
      {{44, 7, 0x735e7a6ff33a1cffULL},
       {44, 5, 0xa88b3e31ae4e8b25ULL},
       {53, 4, 0x7bd105b5baedf7faULL}},
      {{45, 5, 0x7e4831b6aeb34dc8ULL},
       {45, 5, 0x7e4831b6aeb34dc8ULL},
       {49, 4, 0x52d75c36657ebe07ULL}},
      {{47, 7, 0x795f1b4d60db67f3ULL},
       {47, 5, 0x9274d3118c7fb35eULL},
       {49, 4, 0x6fab2f2e6b766e3dULL}},
  };
  const size_t caps[3] = {12, 5, 4};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t c = 0; c < 3; ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExpectGolden(Shape{.seed = seed}, caps[c], want[seed - 1][c]);
    }
  }
}

TEST(ConstructBasisGoldenTest, K800SizedGraph) {
  const Shape shape{.seed = 7, .num_items = 160, .num_pairs = 339};
  ExpectGolden(shape, 12, {138, 9, 0x5f54782c2253e351ULL});
  ExpectGolden(shape, 5, {138, 5, 0xda663014849430a7ULL});
}

TEST(ConstructBasisGoldenTest, PairEndpointsMissingFromF) {
  const Shape shape{.seed = 11, .num_items = 40, .num_pairs = 80,
                    .missing_endpoint_frac = 0.2};
  ExpectGolden(shape, 12, {32, 4, 0xc2cab462f02d2740ULL});
  ExpectGolden(shape, 4, {32, 4, 0xc2cab462f02d2740ULL});
}

TEST(ConstructBasisGoldenTest, DuplicatePairs) {
  const Shape shape{.seed = 13, .num_items = 40, .num_pairs = 90,
                    .duplicate_frac = 0.15};
  ExpectGolden(shape, 12, {23, 5, 0x1b4ddb8ad39557e0ULL});
  ExpectGolden(shape, 5, {23, 5, 0x1b4ddb8ad39557e0ULL});
}

TEST(ConstructBasisGoldenTest, FOnlyInputs) {
  // No pairs: B1 is empty and Line 5 alone reshapes the loose triples.
  const size_t sizes[5] = {1, 2, 7, 20, 61};
  const Golden want[5] = {
      {1, 1, 0xd0277a186651689cULL}, {1, 2, 0x0da82575e2132d02ULL},
      {2, 4, 0x775659635fb1f0f7ULL}, {7, 3, 0x07c4e7d467afaeb0ULL},
      {20, 4, 0x8c414d8b7286f18fULL},
  };
  for (size_t i = 0; i < 5; ++i) {
    Input in =
        MakeInput(Shape{.seed = 17, .num_items = sizes[i], .num_pairs = 0});
    SCOPED_TRACE("n " + std::to_string(sizes[i]));
    ExpectGolden(in.items, {}, 12, want[i]);
  }
}

TEST(ConstructBasisGoldenTest, SmallExactBases) {
  // A 4-clique (split under cap 3), a pendant path, an isolated edge
  // with an endpoint outside F, a duplicated pair and three loose items,
  // spelled out in full.
  const std::vector<Item> items{10, 11, 12, 13, 14, 20, 30, 31, 32};
  const std::vector<Itemset> pairs{
      Itemset{10, 11}, Itemset{11, 12}, Itemset{10, 12}, Itemset{10, 13},
      Itemset{11, 13}, Itemset{12, 13}, Itemset{13, 14}, Itemset{20, 99},
      Itemset{13, 14}};
  const size_t caps[2] = {3, 12};
  const char* want[2] = {
      "BasisSet(w=5, l=3) [{10, 11, 12}, {10, 11, 13}, {12, 13, 14}, "
      "{20, 99}, {30, 31, 32}]",
      "BasisSet(w=3, l=4) [{10, 11, 12, 13}, {13, 14, 20, 99}, "
      "{30, 31, 32}]",
  };
  for (size_t c = 0; c < 2; ++c) {
    ConstructBasisOptions options;
    options.max_basis_length = caps[c];
    auto basis_set = ConstructBasisSet(items, pairs, options);
    ASSERT_TRUE(basis_set.ok());
    EXPECT_EQ(basis_set->ToString(), want[c]) << "cap " << caps[c];
  }
}

TEST(ConstructBasisGoldenTest, UnfiredTokenLeavesOutputUnchanged) {
  const CancelToken token;
  ExpectGolden(kKosarakItems, ToItemsets(kKosarakPairs), 12,
               {43, 6, 0x91cdbf1d5e7b5ba0ULL}, &token);
  const CancelToken far = CancelToken::AfterMs(60 * 60 * 1000);
  ExpectGolden(kKosarakItems, ToItemsets(kKosarakPairs), 4,
               {51, 4, 0xe1b647a389ac45ffULL}, &far);
}

TEST(ConstructBasisGoldenTest, FiredTokenCancels) {
  CancelToken token;
  token.Cancel();
  ConstructBasisOptions options;
  options.cancel = &token;
  auto basis_set =
      ConstructBasisSet(kKosarakItems, ToItemsets(kKosarakPairs), options);
  EXPECT_EQ(basis_set.status().code(), StatusCode::kCancelled);
  // Line 5 alone (no pairs) polls too.
  auto loose = ConstructBasisSet({1, 2, 3, 4, 5, 6, 7}, {}, options);
  EXPECT_EQ(loose.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace privbasis
