// Shared types for the frequent-itemset-mining substrate.
//
// Miners work in absolute supports (counts) — exact integers, no float
// thresholds. Conversion to the paper's frequencies (f = support/N)
// happens at the edges.
#ifndef PRIVBASIS_FIM_MINER_H_
#define PRIVBASIS_FIM_MINER_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "data/itemset.h"

namespace privbasis {

/// A mined itemset with its exact absolute support.
struct FrequentItemset {
  Itemset items;
  uint64_t support = 0;

  bool operator==(const FrequentItemset& other) const = default;
};

/// Mining parameters common to all miners.
struct MiningOptions {
  /// Minimum absolute support (inclusive). Must be ≥ 1.
  uint64_t min_support = 1;
  /// Maximum itemset length; 0 = unbounded.
  size_t max_length = 0;
  /// Truncate once more than this many patterns have been collected;
  /// 0 = unbounded. Callers use this to keep candidate spaces sane
  /// (e.g. the TF baseline's explicit-set mining). See MiningResult for
  /// the truncation contract. Note: FP-Growth bounds *per-task* work,
  /// so peak transient memory on a pathological abort is
  /// O(num_root_ranks · (max_patterns + 1)) patterns, not
  /// O(max_patterns); the returned set is always ≤ max_patterns.
  uint64_t max_patterns = 0;
  /// Parallelism for FP-Growth's tree build and first projection level
  /// (the brute-force oracle ignores it); 0 = the PRIVBASIS_THREADS env
  /// knob. Results are identical at every thread count.
  size_t num_threads = 0;
  /// Cooperative cancellation (common/cancel.h): the miner polls once
  /// per work chunk and returns StatusCode::kCancelled if the token has
  /// fired. nullptr = not cancellable. Not part of any cache key — it is
  /// per-call state, never per-configuration.
  const CancelToken* cancel = nullptr;
};

/// Output of a mining call.
struct MiningResult {
  std::vector<FrequentItemset> itemsets;
  /// Truncation contract, uniform across miners: true iff more than
  /// options.max_patterns patterns were discovered. `itemsets` then holds
  /// exactly max_patterns patterns — the canonically first among those
  /// collected before mining stopped — and is an incomplete answer: use
  /// it only as a "too many patterns" signal plus a sample, never as the
  /// exact frequent set. When false, `itemsets` is complete.
  bool aborted = false;
};

/// Canonical result order: descending support, ties broken by ascending
/// length then lexicographic items — deterministic across miners.
/// Defined in fim/fpgrowth.cc, its production caller.
void SortCanonical(std::vector<FrequentItemset>* itemsets);

/// An itemset released by a private mechanism together with its noisy
/// absolute count (noisy frequency = noisy_count / N). Shared release
/// format of PrivBasis and the TF baseline.
struct NoisyItemset {
  Itemset items;
  double noisy_count = 0.0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_FIM_MINER_H_
