// Synthetic dataset generators calibrated to the five datasets of the
// paper's evaluation (Table 2(a)): retail, mushroom, pumsb-star, kosarak,
// AOL. The real files are FIMI/AOL downloads we do not ship; these
// generators reproduce the properties PB/TF accuracy actually depends on —
// N, |I|, average transaction length, and the shape of the top-k frequency
// landscape (λ, λ2, λ3, tie density near fk). See DESIGN.md §2.2.
//
// Two generator families:
//  * Market-basket (retail, kosarak, AOL): Zipf-distributed background
//    items plus planted correlated patterns.
//  * Categorical (mushroom, pumsb-star): one value per attribute with
//    skewed marginals and a latent class mixing correlated attributes —
//    dense fixed-length transactions whose top-k is dominated by
//    high-order combinations of a few dominant attribute values.
#ifndef PRIVBASIS_DATA_SYNTHETIC_H_
#define PRIVBASIS_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/transaction_db.h"

namespace privbasis {

/// A correlated itemset planted into market-basket transactions.
struct PlantedPattern {
  /// Items of the pattern (dense ids, i.e. Zipf ranks).
  std::vector<Item> items;
  /// Probability a transaction includes the whole pattern.
  double full_prob = 0.0;
  /// Probability a transaction includes a uniform random subset of size
  /// ≥ 2 instead (adds sub-pattern structure).
  double partial_prob = 0.0;
};

/// One attribute of the categorical model. Items ids are assigned
/// contiguously per attribute: value v of attribute a has id
/// offset(a) + v.
struct CategoricalAttribute {
  uint32_t num_values = 2;
  /// Probability of the dominant value (value 0 for class 0).
  double dominant_prob = 0.5;
  /// If true, class-1 transactions use value 1 as the dominant value —
  /// this couples all sensitive attributes and creates correlation.
  bool class_sensitive = false;
  /// Geometric decay ratio across the non-dominant values.
  double tail_decay = 0.55;
};

/// Declarative description of a synthetic dataset.
struct SyntheticProfile {
  enum class Kind { kMarketBasket, kCategorical };

  std::string name;
  Kind kind = Kind::kMarketBasket;
  uint64_t num_transactions = 0;

  // --- market-basket parameters -------------------------------------
  uint32_t universe_size = 0;       ///< |I| for the Zipf background
  double zipf_exponent = 1.05;      ///< background skew
  double mean_transaction_length = 10.0;  ///< Poisson mean of raw draws
  /// Mixture head: with probability head_weight a background draw comes
  /// from a flatter Zipf over the first head_size ranks (models the flat
  /// keyword head of search logs). head_weight = 0 disables the mixture.
  double head_weight = 0.0;
  uint32_t head_size = 0;
  double head_exponent = 0.5;
  std::vector<PlantedPattern> patterns;

  // --- categorical parameters ---------------------------------------
  std::vector<CategoricalAttribute> attributes;
  double class1_prob = 0.0;  ///< latent class mixture weight

  // Factory presets calibrated to Table 2(a). `scale` multiplies the
  // transaction count (benchmarks use PRIVBASIS_SCALE); the item universe
  // and frequency landscape are scale-invariant.
  static SyntheticProfile Retail(double scale = 1.0);
  static SyntheticProfile Mushroom(double scale = 1.0);
  static SyntheticProfile PumsbStar(double scale = 1.0);
  static SyntheticProfile Kosarak(double scale = 1.0);
  static SyntheticProfile Aol(double scale = 1.0);

  /// All five presets in the paper's Table 2 order.
  static std::vector<SyntheticProfile> AllPaperProfiles(double scale = 1.0);
};

/// Materializes a profile into a TransactionDatabase. Deterministic in
/// (profile, seed). Fails on invalid profiles (zero transactions,
/// pattern items outside the universe, ...).
Result<TransactionDatabase> GenerateDataset(const SyntheticProfile& profile,
                                            uint64_t seed);

}  // namespace privbasis

#endif  // PRIVBASIS_DATA_SYNTHETIC_H_
