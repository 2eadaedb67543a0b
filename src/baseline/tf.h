// The TF baseline (Bhaskar, Laxman, Smith, Thakurta, KDD'10): release the
// top k itemsets of length at most m under ε-DP using truncated
// frequencies f̂(X) = max(f(X), fk − γ).
//
// Budget split (per the paper): ε/2 selects the k itemsets, ε/2 releases
// their frequencies with Lap(2k/(εN)) noise each.
//
// Selection operates over U = all itemsets of length ≤ m without ever
// materializing U:
//   * Candidates with support above a mined floor are *explicit* (exact
//     truncated scores).
//   * The rest are *implicit*: under truncation they share the score
//     fk − γ when the floor reaches (fk−γ)N (the non-degenerate regime);
//     otherwise their scores vary below the floor and we sample them
//     exactly by rejection against the floor envelope. Either way one
//     aggregate Gumbel (or a lazy Laplace order-statistics stream, for
//     the Laplace variant) represents the whole implicit mass, and a
//     winning implicit draw is materialized as a uniform random
//     ≤ m-itemset outside the explicit set.
#ifndef PRIVBASIS_BASELINE_TF_H_
#define PRIVBASIS_BASELINE_TF_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "baseline/gamma.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "dp/budget.h"
#include "fim/miner.h"

namespace privbasis {

/// TF configuration.
struct TfOptions {
  /// Maximum itemset length m. The paper reports TF at the m giving the
  /// best precision per dataset/k.
  size_t m = 2;
  /// Error-probability parameter ρ of Equation 3 (paper: 0.9).
  double rho = 0.9;
  /// Selection mechanism: repeated exponential mechanism (primary; used
  /// in the paper's experiments) or Laplace-perturbed truncated scores.
  enum class Selection { kExponentialMechanism, kLaplaceNoise };
  Selection selection = Selection::kExponentialMechanism;
  /// Cap on the mined explicit candidate set; the mining floor rises
  /// until the set fits.
  uint64_t explicit_limit = 1'000'000;
};

/// One TF release.
struct TfResult {
  /// k itemsets with noisy counts, in selection order.
  std::vector<NoisyItemset> released;
  // Diagnostics:
  double gamma = 0.0;            ///< γ (frequency units)
  double truncated_freq = 0.0;   ///< fk − γ
  bool degenerate = false;       ///< fk − γ ≤ 0 (no pruning possible)
  size_t explicit_candidates = 0;
  size_t implicit_selected = 0;  ///< how many winners came from the
                                 ///< implicit (blind-sampled) mass
};

/// Shares the expensive data-dependent preprocessing (top-k mining and
/// the explicit candidate set) across many Run() calls with different ε —
/// the preprocessing is identical for all of them.
class TfRunner {
 public:
  /// Mines the exact top-k (length ≤ m) for fk and the explicit candidate
  /// set, and builds the support index used to materialize implicit
  /// winners. A fired `cancel` token aborts the mines with kCancelled
  /// (the per-call token is not retained by the runner).
  static Result<TfRunner> Create(const TransactionDatabase& db, size_t k,
                                 TfOptions options,
                                 const CancelToken* cancel = nullptr);

  /// One ε-DP release. If `accountant` is non-null, ε is charged to it
  /// (and stays charged if `cancel` fires mid-selection — noise was
  /// already drawn; the sampler unwinds with kCancelled at the next
  /// selection round).
  Result<TfResult> Run(double epsilon, Rng& rng,
                       PrivacyAccountant* accountant = nullptr,
                       const CancelToken* cancel = nullptr) const;

  uint64_t fk_count() const { return fk_count_; }
  size_t num_explicit() const { return explicit_.size(); }
  uint64_t floor_support() const { return floor_support_; }

 private:
  TfRunner(const TransactionDatabase* db, size_t k, TfOptions options);

  /// Uniform random itemset of size ≤ m over the universe, rejecting
  /// members of the explicit set and `taken`.
  Itemset SampleImplicitItemset(
      Rng& rng, const std::unordered_set<Itemset, ItemsetHash>& taken) const;

  Result<TfResult> RunExponential(double epsilon, Rng& rng,
                                  const CancelToken* cancel) const;
  Result<TfResult> RunLaplace(double epsilon, Rng& rng,
                              const CancelToken* cancel) const;
  void FillDiagnostics(double epsilon, TfResult* result) const;

  const TransactionDatabase* db_;
  size_t k_;
  TfOptions options_;
  VerticalIndex index_;
  uint64_t n_ = 0;
  double log_u_ = 0.0;           ///< ln|U|
  double u_size_ = 0.0;          ///< |U| as double (may be huge but finite)
  uint64_t fk_count_ = 0;        ///< support of the k-th itemset, length ≤ m
  uint64_t floor_support_ = 1;   ///< explicit set = supports ≥ this
  std::vector<FrequentItemset> explicit_;
  std::unordered_set<Itemset, ItemsetHash> explicit_lookup_;
  std::vector<double> size_log_weights_;  ///< log C(|I|, j), j = 1..m
};

}  // namespace privbasis

#endif  // PRIVBASIS_BASELINE_TF_H_
