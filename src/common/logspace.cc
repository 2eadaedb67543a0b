#include "common/logspace.h"

#include <cmath>
#include <limits>

#include "common/distributions.h"

namespace privbasis {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

GumbelMaxSampler::GumbelMaxSampler(Rng* rng) : rng_(rng) {}

void GumbelMaxSampler::Offer(size_t key, double log_weight) {
  if (log_weight == kNegInf) return;
  double score = log_weight + SampleGumbel(*rng_);
  if (!has_winner_ || score > best_score_) {
    has_winner_ = true;
    winner_key_ = key;
    best_score_ = score;
  }
}

void GumbelMaxSampler::OfferGroup(size_t group_key, double log_weight,
                                  double count) {
  if (count <= 0.0 || log_weight == kNegInf) return;
  Offer(group_key, log_weight + std::log(count));
}

}  // namespace privbasis
