// Log-space numerics for the exponential mechanism.
//
// Exponential-mechanism weights look like exp(ε·N·q/2) with counts in the
// millions; they cannot be formed in double precision. Everything here
// operates on log-weights and stays finite.
#ifndef PRIVBASIS_COMMON_LOGSPACE_H_
#define PRIVBASIS_COMMON_LOGSPACE_H_

#include <cstddef>

#include "common/rng.h"

namespace privbasis {

/// Streaming Gumbel-max sampler: feed (key, log_weight) pairs one at a
/// time; Winner() is distributed ∝ exp(log_weight). Lets callers sample
/// over candidate sets too large to materialize.
class GumbelMaxSampler {
 public:
  explicit GumbelMaxSampler(Rng* rng);

  /// Considers one candidate. `log_weight` of −inf is skipped.
  void Offer(size_t key, double log_weight);

  /// Considers `count` candidates sharing one log-weight in aggregate: the
  /// maximum of `count` iid Gumbels shifted by `log_weight` is a single
  /// Gumbel shifted by `log_weight + log(count)`. The winning key is
  /// `group_key`; the caller resolves which member won afterwards
  /// (uniformly at random, by exchangeability).
  void OfferGroup(size_t group_key, double log_weight, double count);

  bool HasWinner() const { return has_winner_; }
  size_t WinnerKey() const { return winner_key_; }

 private:
  Rng* rng_;
  bool has_winner_ = false;
  size_t winner_key_ = 0;
  double best_score_ = 0.0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_LOGSPACE_H_
