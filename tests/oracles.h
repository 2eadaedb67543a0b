// Reference implementations the tests compare product output against:
// an exhaustive miner, the Laplace CDF, exact exponential-mechanism
// probabilities, the paper's inverse-variance fusion and closed-form
// average-case error variance, and the θ-basis coverage property. Each
// is the direct, unoptimized statement of its definition.
#ifndef PRIVBASIS_TESTS_ORACLES_H_
#define PRIVBASIS_TESTS_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/basis.h"
#include "core/error_variance.h"
#include "data/itemset.h"
#include "data/transaction_db.h"
#include "fim/miner.h"

namespace privbasis::testing {

/// Mines all itemsets with support ≥ options.min_support and length ≤
/// options.max_length by hash-counting every (length-capped) subset of
/// every transaction. Exponential in transaction length, so
/// options.max_length must be ≥ 1. Results are in canonical order;
/// max_patterns is ignored.
inline Result<MiningResult> MineBruteForce(const TransactionDatabase& db,
                                           const MiningOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (options.max_length == 0) {
    return Status::InvalidArgument(
        "brute-force miner requires a max_length cap");
  }

  std::unordered_map<std::vector<Item>, uint64_t, ItemVectorHash> counts;
  std::vector<Item> combo;
  // Enumerate size-m combinations of each transaction for every m up to
  // the cap, with recursive lexicographic generation.
  std::function<void(std::span<const Item>, size_t, size_t)> gen =
      [&](std::span<const Item> txn, size_t start, size_t want) {
        if (want == 0) {
          ++counts[combo];
          return;
        }
        for (size_t i = start; i + want <= txn.size() + 1 && i < txn.size();
             ++i) {
          combo.push_back(txn[i]);
          gen(txn, i + 1, want - 1);
          combo.pop_back();
        }
      };

  for (size_t t = 0; t < db.NumTransactions(); ++t) {
    auto txn = db.Transaction(t);
    for (size_t m = 1; m <= options.max_length && m <= txn.size(); ++m) {
      combo.clear();
      gen(txn, 0, m);
    }
  }

  MiningResult result;
  for (auto& [items, support] : counts) {
    if (support >= options.min_support) {
      result.itemsets.push_back(
          FrequentItemset{Itemset::FromSorted(items), support});
    }
  }
  SortCanonical(&result.itemsets);
  return result;
}

/// The closed-form CDF of Laplace(0, scale).
inline double LaplaceCdf(double x, double scale) {
  if (x < 0) return 0.5 * std::exp(x / scale);
  return 1.0 - 0.5 * std::exp(-x / scale);
}

/// Exact exponential-mechanism probabilities P(i) ∝ exp(log_weights[i]),
/// the reference the samplers' empirical frequencies are checked against.
inline std::vector<double> ExponentialMechanismProbabilities(
    const std::vector<double>& log_weights) {
  double max = log_weights.front();
  for (double w : log_weights) max = std::max(max, w);
  std::vector<double> probabilities;
  double total = 0.0;
  for (double w : log_weights) {
    probabilities.push_back(std::exp(w - max));
    total += probabilities.back();
  }
  for (double& p : probabilities) p /= total;
  return probabilities;
}

/// Inverse-variance fusion: fold of v1·v2/(v1+v2) over all estimates.
/// Empty input returns +inf (no estimate at all).
inline double CombineVarianceUnits(std::span<const double> units) {
  if (units.empty()) return std::numeric_limits<double>::infinity();
  // Fold v <- v*u/(v+u); associative and order-independent (it is the
  // harmonic composition 1/v = Σ 1/u_i).
  double inv_sum = 0.0;
  for (double u : units) inv_sum += 1.0 / u;
  return 1.0 / inv_sum;
}

/// Average-case EV (§4.2, in w²-scaled variance units) of answering every
/// query in `queries` from `basis_set`: mean over queries of
/// w² · combine({2^{|Bi|−|X|} : X ⊆ Bi}). Queries covered by no basis
/// contribute +inf.
inline double AverageCaseEv(const BasisSet& basis_set,
                            std::span<const Itemset> queries) {
  if (queries.empty()) return 0.0;
  const double w2 = static_cast<double>(basis_set.Width()) *
                    static_cast<double>(basis_set.Width());
  double total = 0.0;
  std::vector<double> units;
  for (const auto& query : queries) {
    units.clear();
    for (const auto& b : basis_set.bases()) {
      if (query.IsSubsetOf(b)) {
        units.push_back(VarianceUnits(b.size(), query.size()));
      }
    }
    total += w2 * CombineVarianceUnits(units);
  }
  return total / static_cast<double>(queries.size());
}

/// True iff some basis contains `itemset` — the θ-basis property
/// (Definition 2) for one frequent itemset.
inline bool Covers(const BasisSet& basis_set, const Itemset& itemset) {
  for (const auto& b : basis_set.bases()) {
    if (itemset.IsSubsetOf(b)) return true;
  }
  return false;
}

}  // namespace privbasis::testing

#endif  // PRIVBASIS_TESTS_ORACLES_H_
