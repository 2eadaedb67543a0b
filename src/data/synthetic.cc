#include "data/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/distributions.h"
#include "common/rng.h"

namespace privbasis {

namespace {

/// Knuth's Poisson sampler. Exact; O(mean) per draw, fine for mean ≤ ~500.
uint64_t SamplePoisson(Rng& rng, double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  double limit = std::exp(-mean);
  uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit);
  return k - 1;
}

/// Per-attribute, per-class cumulative value distribution.
struct AttributeCdf {
  std::vector<double> class0;
  std::vector<double> class1;
};

/// Builds the value CDF of one attribute for one class. The dominant value
/// (0 for class 0; 1 for class-1-sensitive attributes) takes
/// `dominant_prob`; the remaining mass decays geometrically across the
/// other values in ascending id order.
std::vector<double> BuildValueCdf(const CategoricalAttribute& attr,
                                  bool class1) {
  const uint32_t v = attr.num_values;
  std::vector<double> pmf(v, 0.0);
  uint32_t dominant = (class1 && attr.class_sensitive && v >= 2) ? 1u : 0u;
  if (v == 1) {
    pmf[0] = 1.0;
  } else {
    pmf[dominant] = attr.dominant_prob;
    double rest = 1.0 - attr.dominant_prob;
    // Geometric weights over the non-dominant values.
    double weight_sum = 0.0;
    double w = 1.0;
    for (uint32_t i = 0; i + 1 < v; ++i) {
      weight_sum += w;
      w *= attr.tail_decay;
    }
    w = 1.0;
    for (uint32_t val = 0; val < v; ++val) {
      if (val == dominant) continue;
      pmf[val] = rest * (w / weight_sum);
      w *= attr.tail_decay;
    }
  }
  std::vector<double> cdf(v);
  double acc = 0.0;
  for (uint32_t val = 0; val < v; ++val) {
    acc += pmf[val];
    cdf[val] = acc;
  }
  cdf.back() = 1.0;  // exact top regardless of rounding
  return cdf;
}

uint32_t SampleFromCdf(Rng& rng, const std::vector<double>& cdf) {
  double u = rng.NextDouble();
  // Attribute cardinalities are small; the linear scan beats binary search.
  for (uint32_t v = 0; v < cdf.size(); ++v) {
    if (u < cdf[v]) return v;
  }
  return static_cast<uint32_t>(cdf.size() - 1);
}

Result<TransactionDatabase> GenerateMarketBasket(
    const SyntheticProfile& profile, Rng& rng) {
  if (profile.universe_size == 0) {
    return Status::InvalidArgument("market-basket profile needs universe_size");
  }
  for (const auto& pattern : profile.patterns) {
    for (Item it : pattern.items) {
      if (it >= profile.universe_size) {
        return Status::InvalidArgument("pattern item " + std::to_string(it) +
                                       " outside universe");
      }
    }
    if (pattern.items.size() < 2) {
      return Status::InvalidArgument("planted patterns need >= 2 items");
    }
  }

  ZipfDistribution tail(profile.universe_size, profile.zipf_exponent);
  const bool has_head = profile.head_weight > 0.0 && profile.head_size > 0;
  ZipfDistribution head(has_head ? profile.head_size : 1,
                        has_head ? profile.head_exponent : 1.0);

  TransactionDatabase::Builder builder(profile.universe_size);
  std::vector<Item> txn;
  for (uint64_t t = 0; t < profile.num_transactions; ++t) {
    txn.clear();
    uint64_t draws =
        std::max<uint64_t>(1, SamplePoisson(rng, profile.mean_transaction_length));
    for (uint64_t d = 0; d < draws; ++d) {
      Item item;
      if (has_head && rng.NextDouble() < profile.head_weight) {
        item = static_cast<Item>(head.Sample(rng));
      } else if (has_head) {
        // The tail is the global Zipf *conditioned* on ranks past the
        // head — otherwise its own low ranks would stack on top of the
        // head items and break the calibrated head frequencies.
        uint64_t r;
        do {
          r = tail.Sample(rng);
        } while (r < profile.head_size);
        item = static_cast<Item>(r);
      } else {
        item = static_cast<Item>(tail.Sample(rng));
      }
      txn.push_back(item);
    }
    for (const auto& pattern : profile.patterns) {
      double u = rng.NextDouble();
      if (u < pattern.full_prob) {
        txn.insert(txn.end(), pattern.items.begin(), pattern.items.end());
      } else if (u < pattern.full_prob + pattern.partial_prob) {
        // A uniform-size (>= 2) random sub-pattern.
        size_t sz = 2 + rng.UniformInt(pattern.items.size() - 1);
        auto picks = SampleDistinct(rng, pattern.items.size(), sz);
        for (uint64_t idx : picks) txn.push_back(pattern.items[idx]);
      }
    }
    builder.AddTransaction(txn);  // sorts + dedups
  }
  return std::move(builder).Build();
}

Result<TransactionDatabase> GenerateCategorical(
    const SyntheticProfile& profile, Rng& rng) {
  if (profile.attributes.empty()) {
    return Status::InvalidArgument("categorical profile needs attributes");
  }
  std::vector<AttributeCdf> cdfs;
  std::vector<Item> offsets;
  cdfs.reserve(profile.attributes.size());
  offsets.reserve(profile.attributes.size());
  Item offset = 0;
  for (const auto& attr : profile.attributes) {
    if (attr.num_values == 0 || attr.dominant_prob < 0.0 ||
        attr.dominant_prob > 1.0) {
      return Status::InvalidArgument("invalid categorical attribute");
    }
    cdfs.push_back(
        AttributeCdf{BuildValueCdf(attr, false), BuildValueCdf(attr, true)});
    offsets.push_back(offset);
    offset += attr.num_values;
  }

  TransactionDatabase::Builder builder(offset);
  std::vector<Item> txn(profile.attributes.size());
  for (uint64_t t = 0; t < profile.num_transactions; ++t) {
    bool class1 = rng.Bernoulli(profile.class1_prob);
    for (size_t a = 0; a < profile.attributes.size(); ++a) {
      const auto& cdf = class1 ? cdfs[a].class1 : cdfs[a].class0;
      txn[a] = offsets[a] + SampleFromCdf(rng, cdf);
    }
    builder.AddTransaction(txn);
  }
  return std::move(builder).Build();
}

uint64_t ScaledCount(uint64_t n, double scale) {
  return std::max<uint64_t>(100, static_cast<uint64_t>(
                                     std::llround(static_cast<double>(n) * scale)));
}

}  // namespace

Result<TransactionDatabase> GenerateDataset(const SyntheticProfile& profile,
                                            uint64_t seed) {
  if (profile.num_transactions == 0) {
    return Status::InvalidArgument("profile has zero transactions");
  }
  Rng rng(seed ^ 0xa0761d6478bd642fULL);
  if (profile.kind == SyntheticProfile::Kind::kMarketBasket) {
    return GenerateMarketBasket(profile, rng);
  }
  return GenerateCategorical(profile, rng);
}

// ---------------------------------------------------------------------------
// Presets. Calibration targets are the paper's Table 2(a); commented next
// to each preset. Constants were tuned against the mined statistics (see
// tests/synthetic_calibration_test.cc and bench_table2a).
// ---------------------------------------------------------------------------

SyntheticProfile SyntheticProfile::Retail(double scale) {
  // Target: N=88162, |I|=16470, avg|t|=11.3; top-100: λ≈38, λ2≈37, λ3≈21;
  // f_100·N ≈ 1192 (f_100 ≈ 0.0135); many near-ties just below f_k.
  SyntheticProfile p;
  p.name = "retail";
  p.kind = Kind::kMarketBasket;
  p.num_transactions = ScaledCount(88162, scale);
  p.universe_size = 16470;
  p.zipf_exponent = 0.95;
  p.mean_transaction_length = 10.6;
  // Five 4-item co-purchase groups (≈ 20 triples), two triples, and a
  // handful of pairs, planted over low Zipf ranks. Probabilities sit just
  // above the ~0.013 top-100 frequency cutoff so the pattern subsets land
  // inside the top-k without pushing fk far above the paper's value.
  p.patterns = {
      // Triples/quads over top ranks, probable enough to clear the
      // top-100 cutoff (their subsets land above fk ≈ 0.03).
      {{0, 1, 6}, 0.042, 0.0},      {{0, 2, 9}, 0.038, 0.0},
      {{1, 3, 12}, 0.035, 0.0},     {{0, 4, 15}, 0.033, 0.0},
      {{2, 5, 18}, 0.031, 0.0},     {{1, 7, 21}, 0.030, 0.0},
      {{0, 3, 7, 16}, 0.030, 0.0},  {{1, 5, 10, 20}, 0.028, 0.0},
      {{2, 4, 13, 24}, 0.027, 0.0},
      // Mid-rank co-purchase pairs: a dense band of near-ties just below
      // and around fk (the paper's retail FNR observation).
      {{24, 60}, 0.031, 0.0},       {{26, 64}, 0.030, 0.0},
      {{28, 68}, 0.029, 0.0},       {{31, 72}, 0.029, 0.0},
      {{33, 76}, 0.028, 0.0},       {{35, 80}, 0.028, 0.0},
  };
  return p;
}

SyntheticProfile SyntheticProfile::Mushroom(double scale) {
  // Target: N=8124, |I|=119, avg|t|=24; top-100: λ≈11 (k=100), λ≈8 (k=50);
  // f_100 ≈ 0.55. Dense categorical data: ~11 dominant attribute values.
  SyntheticProfile p;
  p.name = "mushroom";
  p.kind = Kind::kCategorical;
  p.num_transactions = ScaledCount(8124, scale);
  p.class1_prob = 0.35;
  auto attr = [](uint32_t v, double d, bool sens) {
    return CategoricalAttribute{v, d, sens, 0.55};
  };
  p.attributes = {
      attr(2, 0.995, false),  // near-constant, like veil-type
      attr(3, 0.95, false),  attr(4, 0.92, false), attr(4, 0.88, true),
      attr(5, 0.84, false),  attr(5, 0.80, true),  attr(5, 0.76, false),
      attr(6, 0.72, true),   attr(6, 0.68, false), attr(6, 0.64, true),
      attr(6, 0.58, false),
  };
  // 13 low-skew attributes: their values stay out of the top-k.
  for (int i = 0; i < 13; ++i) {
    p.attributes.push_back(attr(5, 0.38, i % 3 == 0));
  }
  return p;  // universe = 2+3+4+4+5+5+5+6+6+6+6 + 13*5 = 117
}

SyntheticProfile SyntheticProfile::PumsbStar(double scale) {
  // Target: N=49046, |I|=2088, avg|t|=50; top-200: λ≈17, λ2≈31, λ3≈50;
  // f_200 ≈ 0.583. Census-like: 17 high-dominance attributes out of 50.
  SyntheticProfile p;
  p.name = "pumsb-star";
  p.kind = Kind::kCategorical;
  p.num_transactions = ScaledCount(49046, scale);
  p.class1_prob = 0.30;
  for (int i = 0; i < 17; ++i) {
    CategoricalAttribute a;
    a.num_values = 6;
    a.dominant_prob = 0.98 - 0.016 * i;  // 0.98 down to ~0.72
    a.class_sensitive = (i % 3 == 2);
    a.tail_decay = 0.5;
    p.attributes.push_back(a);
  }
  for (int i = 0; i < 33; ++i) {
    CategoricalAttribute a;
    a.num_values = 60;
    a.dominant_prob = 0.40;
    a.class_sensitive = (i % 4 == 0);
    a.tail_decay = 0.85;
    p.attributes.push_back(a);
  }
  return p;  // universe = 17*6 + 33*60 = 2082
}

SyntheticProfile SyntheticProfile::Kosarak(double scale) {
  // Target: N=990002, |I|=41270, avg|t|=8.1; top-200: λ≈44, λ2≈84, λ3≈58;
  // f_200 ≈ 0.0143. Pure Zipf(1.05) already yields the pair/triple mix;
  // a few session patterns add realism.
  SyntheticProfile p;
  p.name = "kosarak";
  p.kind = Kind::kMarketBasket;
  p.num_transactions = ScaledCount(990002, scale);
  p.universe_size = 41270;
  p.zipf_exponent = 1.08;
  p.mean_transaction_length = 7.7;
  p.patterns = {
      {{1, 5, 11}, 0.026, 0.010},      {{3, 8, 17}, 0.022, 0.008},
      {{6, 13, 24}, 0.019, 0.007},     {{2, 7, 15, 22}, 0.020, 0.006},
      {{4, 10, 19, 30}, 0.017, 0.005}, {{9, 20}, 0.024, 0.0},
      {{14, 27}, 0.019, 0.0},
  };
  return p;
}

SyntheticProfile SyntheticProfile::Aol(double scale) {
  // Target: N=647377, |I|=2290685, avg|t|=34; top-200: 171 singletons +
  // 29 pairs, λ3 = 0; f_200 ≈ 0.0192. A flat keyword head over a huge
  // Zipf tail; no high-order structure.
  SyntheticProfile p;
  p.name = "aol";
  p.kind = Kind::kMarketBasket;
  p.num_transactions = ScaledCount(647377, scale);
  p.universe_size = 2290685;
  p.zipf_exponent = 1.05;
  p.mean_transaction_length = 34.0;
  // A wide, flat keyword head: singleton frequencies decay slowly enough
  // that ~170 singletons clear the top-200 cutoff, while pairwise
  // products stay below it except for the very top handful of keywords.
  p.head_weight = 0.35;
  p.head_size = 500;
  p.head_exponent = 0.52;
  return p;
}

std::vector<SyntheticProfile> SyntheticProfile::AllPaperProfiles(
    double scale) {
  return {Retail(scale), Mushroom(scale), PumsbStar(scale), Kosarak(scale),
          Aol(scale)};
}

}  // namespace privbasis
