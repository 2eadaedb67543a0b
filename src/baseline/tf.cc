#include "baseline/tf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/distributions.h"
#include "common/logspace.h"
#include "common/math_util.h"
#include "dp/order_statistics.h"
#include "fim/fpgrowth.h"
#include "fim/topk.h"

namespace privbasis {

namespace {

/// Explicit candidates grouped by exact support; groups are mutable per
/// run (members are removed as they are selected).
struct SupportGroup {
  uint64_t support;
  std::vector<uint32_t> members;  // indices into TfRunner::explicit_
};

std::vector<SupportGroup> GroupBySupport(
    const std::vector<FrequentItemset>& explicit_set) {
  std::vector<uint32_t> order(explicit_set.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return explicit_set[a].support > explicit_set[b].support;
  });
  std::vector<SupportGroup> groups;
  for (uint32_t idx : order) {
    if (groups.empty() || groups.back().support != explicit_set[idx].support) {
      groups.push_back(SupportGroup{explicit_set[idx].support, {}});
    }
    groups.back().members.push_back(idx);
  }
  return groups;
}

constexpr size_t kImplicitKey = std::numeric_limits<size_t>::max();

}  // namespace

TfRunner::TfRunner(const TransactionDatabase* db, size_t k, TfOptions options)
    : db_(db), k_(k), options_(options), index_(*db) {}

Result<TfRunner> TfRunner::Create(const TransactionDatabase& db, size_t k,
                                  TfOptions options,
                                  const CancelToken* cancel) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.m == 0) return Status::InvalidArgument("m must be >= 1");
  TfRunner runner(&db, k, options);
  runner.n_ = db.NumTransactions();
  runner.log_u_ = TfLogCandidateSpace(db.UniverseSize(), options.m);
  runner.u_size_ = std::exp(runner.log_u_);
  for (size_t j = 1; j <= options.m; ++j) {
    runner.size_log_weights_.push_back(LogChoose(db.UniverseSize(), j));
  }

  // Exact fk over itemsets of length <= m.
  PRIVBASIS_ASSIGN_OR_RETURN(
      TopKResult top,
      MineTopK(db, k, options.m, /*num_threads=*/0, cancel));
  if (top.itemsets.size() < k) {
    return Status::InvalidArgument(
        "dataset has fewer than k itemsets of length <= m");
  }
  runner.fk_count_ = top.kth_support;

  // Explicit candidate set: supports >= floor, with the floor descending
  // geometrically from fk until the set would exceed the cap. m == 1
  // needs no miner — the singletons are precomputed.
  if (options.m == 1) {
    uint64_t floor = std::max<uint64_t>(1, runner.fk_count_);
    std::vector<FrequentItemset> best;
    while (true) {
      std::vector<FrequentItemset> current;
      for (Item it = 0; it < db.UniverseSize(); ++it) {
        uint64_t sup = db.ItemSupports()[it];
        if (sup >= floor) current.push_back(FrequentItemset{Itemset{it}, sup});
      }
      if (current.size() > options.explicit_limit && !best.empty()) break;
      if (current.size() <= options.explicit_limit) {
        best = std::move(current);
        runner.floor_support_ = floor;
        if (floor == 1 || best.size() >= options.explicit_limit / 2) break;
        floor = std::max<uint64_t>(1, floor / 2);
      } else {
        // Even the first floor overflowed: raise it.
        floor = floor * 2 + 1;
      }
    }
    runner.explicit_ = std::move(best);
  } else {
    uint64_t floor = std::max<uint64_t>(1, runner.fk_count_);
    std::vector<FrequentItemset> best;
    uint64_t best_floor = floor;
    bool have_best = false;
    while (true) {
      MiningOptions mopts;
      mopts.min_support = floor;
      mopts.max_length = options.m;
      mopts.max_patterns = options.explicit_limit;
      mopts.cancel = cancel;
      auto mined = MineFpGrowth(db, mopts);
      if (!mined.ok()) return mined.status();
      if (mined->aborted) {
        if (have_best) break;  // keep the last floor that fit
        floor = floor * 2 + 1;
        continue;
      }
      best = std::move(mined->itemsets);
      best_floor = floor;
      have_best = true;
      if (floor == 1 || best.size() >= options.explicit_limit / 2) break;
      floor = std::max<uint64_t>(1, floor / 2);
    }
    runner.explicit_ = std::move(best);
    runner.floor_support_ = best_floor;
  }

  runner.explicit_lookup_.reserve(runner.explicit_.size() * 2);
  for (const auto& fi : runner.explicit_) {
    runner.explicit_lookup_.insert(fi.items);
  }
  return runner;
}

void TfRunner::FillDiagnostics(double epsilon, TfResult* result) const {
  double fk = static_cast<double>(fk_count_) / static_cast<double>(n_);
  result->gamma = TfGamma(n_, k_, epsilon, options_.rho, log_u_);
  result->truncated_freq = fk - result->gamma;
  result->degenerate = result->truncated_freq <= 0.0;
  result->explicit_candidates = explicit_.size();
}

Itemset TfRunner::SampleImplicitItemset(
    Rng& rng,
    const std::unordered_set<Itemset, ItemsetHash>& taken) const {
  // Uniform over U: size j with probability proportional to C(|I|, j),
  // then a uniform j-subset; rejection keeps it uniform over U minus the
  // explicit set and the already-selected itemsets.
  double max_lw = *std::max_element(size_log_weights_.begin(),
                                    size_log_weights_.end());
  std::vector<double> weights;
  weights.reserve(size_log_weights_.size());
  for (double lw : size_log_weights_) weights.push_back(std::exp(lw - max_lw));
  while (true) {
    size_t j = SampleDiscrete(rng, weights) + 1;
    if (j > db_->UniverseSize()) continue;
    auto picks = SampleDistinct(rng, db_->UniverseSize(), j);
    std::vector<Item> items(picks.begin(), picks.end());
    Itemset candidate(std::move(items));
    if (explicit_lookup_.contains(candidate) || taken.contains(candidate)) {
      continue;
    }
    return candidate;
  }
}

Result<TfResult> TfRunner::Run(double epsilon, Rng& rng,
                               PrivacyAccountant* accountant,
                               const CancelToken* cancel) const {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (accountant != nullptr) {
    PRIVBASIS_RETURN_NOT_OK(accountant->Consume(epsilon, "TF"));
  }
  if (options_.selection == TfOptions::Selection::kExponentialMechanism) {
    return RunExponential(epsilon, rng, cancel);
  }
  return RunLaplace(epsilon, rng, cancel);
}

Result<TfResult> TfRunner::RunExponential(double epsilon, Rng& rng,
                                          const CancelToken* cancel) const {
  TfResult result;
  FillDiagnostics(epsilon, &result);

  // Per-round exponent on truncated counts: (ε/2 over k rounds, GS 1,
  // non-monotone) -> ε/(4k), matching exp(εN·f̂/(4k)) from the paper.
  const double factor = epsilon / (4.0 * static_cast<double>(k_));
  // Truncated score floor T = (fk − γ)·N, in counts. May be negative.
  const double truncation =
      static_cast<double>(fk_count_) -
      result.gamma * static_cast<double>(n_);
  // Envelope score for implicit candidates (support <= floor−1).
  const double envelope =
      std::max(truncation, static_cast<double>(floor_support_) - 1.0);

  std::vector<SupportGroup> groups = GroupBySupport(explicit_);
  std::unordered_set<Itemset, ItemsetHash> taken;
  std::vector<Itemset> selected;
  std::vector<double> exact_counts;
  selected.reserve(k_);

  double implicit_remaining =
      std::isinf(u_size_)
          ? std::numeric_limits<double>::infinity()
          : std::max(0.0, u_size_ - static_cast<double>(explicit_.size()));

  while (selected.size() < k_) {
    if (IsCancelled(cancel)) {
      return Status::Cancelled("TF selection cancelled mid-round");
    }
    GumbelMaxSampler sampler(&rng);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].members.empty()) continue;
      double score =
          std::max(static_cast<double>(groups[g].support), truncation);
      sampler.OfferGroup(g, factor * score,
                         static_cast<double>(groups[g].members.size()));
    }
    if (implicit_remaining > 0.0) {
      double log_count = std::isinf(implicit_remaining)
                             ? log_u_
                             : std::log(implicit_remaining);
      sampler.Offer(kImplicitKey, factor * envelope + log_count);
    }
    if (!sampler.HasWinner()) {
      return Status::Internal("TF selection ran out of candidates");
    }
    if (sampler.WinnerKey() == kImplicitKey) {
      // Materialize: uniform implicit itemset, accepted against the
      // envelope so the overall draw is exact; a rejection restarts the
      // whole round (self-normalized rejection sampling).
      Itemset candidate = SampleImplicitItemset(rng, taken);
      uint64_t support = index_.SupportOf(candidate);
      double score = std::max(static_cast<double>(support), truncation);
      double accept = std::exp(factor * (score - envelope));
      if (!rng.Bernoulli(accept)) continue;
      taken.insert(candidate);
      selected.push_back(candidate);
      exact_counts.push_back(static_cast<double>(support));
      implicit_remaining = std::isinf(implicit_remaining)
                               ? implicit_remaining
                               : implicit_remaining - 1.0;
      ++result.implicit_selected;
    } else {
      auto& group = groups[sampler.WinnerKey()];
      size_t pick = rng.UniformInt(group.members.size());
      uint32_t idx = group.members[pick];
      group.members[pick] = group.members.back();
      group.members.pop_back();
      selected.push_back(explicit_[idx].items);
      exact_counts.push_back(static_cast<double>(explicit_[idx].support));
    }
  }

  // Step 2: release Lap(2k/ε)-noised counts (frequencies noise 2k/(εN)).
  const double release_scale = 2.0 * static_cast<double>(k_) / epsilon;
  result.released.reserve(k_);
  for (size_t i = 0; i < selected.size(); ++i) {
    result.released.push_back(NoisyItemset{
        selected[i], exact_counts[i] + SampleLaplace(rng, release_scale)});
  }
  return result;
}

Result<TfResult> TfRunner::RunLaplace(double epsilon, Rng& rng,
                                      const CancelToken* cancel) const {
  TfResult result;
  FillDiagnostics(epsilon, &result);

  const double noise_scale = 4.0 * static_cast<double>(k_) / epsilon;
  const double truncation =
      static_cast<double>(fk_count_) - result.gamma * static_cast<double>(n_);
  const double envelope =
      std::max(truncation, static_cast<double>(floor_support_) - 1.0);

  // Noisy truncated scores of every explicit candidate.
  struct Scored {
    double score;
    uint32_t idx;
  };
  std::vector<Scored> scored;
  scored.reserve(explicit_.size());
  for (uint32_t i = 0; i < explicit_.size(); ++i) {
    double base =
        std::max(static_cast<double>(explicit_[i].support), truncation);
    scored.push_back(Scored{base + SampleLaplace(rng, noise_scale), i});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });

  // Implicit mass: lazily stream the largest noisy scores of the
  // remaining |U|−|E| candidates (all at the envelope score — exact in
  // the non-degenerate regime, a documented upper-bound approximation
  // when the floor truncates above fk−γ).
  double implicit_count_d =
      std::isinf(u_size_)
          ? 9e18
          : std::max(0.0, u_size_ - static_cast<double>(explicit_.size()));
  uint64_t implicit_count = static_cast<uint64_t>(
      std::min(implicit_count_d, 9e18));

  std::unordered_set<Itemset, ItemsetHash> taken;
  std::vector<Itemset> selected;
  std::vector<double> exact_counts;
  size_t next_explicit = 0;
  LaplaceTopOrderStatistics implicit_stream(std::max<uint64_t>(1,
                                                               implicit_count),
                                            noise_scale);
  bool implicit_available = implicit_count > 0;
  double implicit_next = implicit_available
                             ? envelope + implicit_stream.Next(rng)
                             : -std::numeric_limits<double>::infinity();

  while (selected.size() < k_) {
    if (IsCancelled(cancel)) {
      return Status::Cancelled("TF-Laplace selection cancelled mid-round");
    }
    bool take_explicit;
    if (next_explicit < scored.size() && implicit_available) {
      take_explicit = scored[next_explicit].score >= implicit_next;
    } else if (next_explicit < scored.size()) {
      take_explicit = true;
    } else if (implicit_available) {
      take_explicit = false;
    } else {
      return Status::Internal("TF-Laplace ran out of candidates");
    }
    if (take_explicit) {
      uint32_t idx = scored[next_explicit].idx;
      ++next_explicit;
      selected.push_back(explicit_[idx].items);
      exact_counts.push_back(static_cast<double>(explicit_[idx].support));
    } else {
      Itemset candidate = SampleImplicitItemset(rng, taken);
      taken.insert(candidate);
      uint64_t support = index_.SupportOf(candidate);
      selected.push_back(candidate);
      exact_counts.push_back(static_cast<double>(support));
      ++result.implicit_selected;
      if (implicit_stream.HasNext()) {
        implicit_next = envelope + implicit_stream.Next(rng);
      } else {
        implicit_available = false;
      }
    }
  }

  const double release_scale = 2.0 * static_cast<double>(k_) / epsilon;
  result.released.reserve(k_);
  for (size_t i = 0; i < selected.size(); ++i) {
    result.released.push_back(NoisyItemset{
        selected[i], exact_counts[i] + SampleLaplace(rng, release_scale)});
  }
  return result;
}

}  // namespace privbasis
