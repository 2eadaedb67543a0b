// The exponential mechanism (McSherry & Talwar): select r with probability
// ∝ exp(ε·q(D,r) / (2·GS_q)); the factor 2 drops for monotone quality
// functions (paper §2.1, Eq. 1 and the discussion after it).
//
// All selection happens in log space via the Gumbel-max trick — quality
// scores can be raw counts (up to ~1e15) without overflow.
#ifndef PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_
#define PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logspace.h"
#include "common/rng.h"
#include "common/status.h"

namespace privbasis {

/// Candidates with integer qualities, grouped by quality value.
///
/// Candidates sharing a quality are exchangeable under the exponential
/// mechanism, so a round needs one Gumbel draw per *distinct* value
/// instead of one per candidate — this is what makes selecting 200 items
/// out of the 2.3M-item AOL universe cheap. Supports without-replacement
/// rounds via TakeFrom. Holds one 4-byte index per candidate, so at most
/// 2^32 − 1 candidates.
class GroupedEmPool {
 public:
  explicit GroupedEmPool(std::span<const uint64_t> qualities);
  /// The same pool from `order`, which must be DescendingOrder(qualities)
  /// (common/math_util.h) — a memoized copy of it skips the sort.
  GroupedEmPool(std::span<const uint64_t> qualities,
                std::vector<uint32_t> order);

  size_t NumGroups() const { return groups_.size(); }
  size_t NumRemaining() const { return remaining_; }
  uint64_t GroupQuality(size_t group) const { return groups_[group].quality; }
  /// Groups are in descending quality order, so before any TakeFrom a
  /// group covers the ranks [GroupBegin, GroupBegin + GroupSize) of the
  /// candidates sorted by descending quality.
  size_t GroupBegin(size_t group) const { return groups_[group].begin; }
  size_t GroupSize(size_t group) const { return groups_[group].size; }

  /// Offers every non-empty group to `sampler` with key = group index and
  /// log-weight factor·quality aggregated over the group size.
  void OfferAll(GumbelMaxSampler* sampler, double factor) const;

  /// Removes and returns a uniformly random remaining member (an index
  /// into the original qualities span) of `group`.
  size_t TakeFrom(size_t group, Rng& rng);

  /// Runs `count` without-replacement rounds with the given per-round
  /// exponent factor; returns the selected original indices in order.
  Result<std::vector<size_t>> SelectK(Rng& rng, size_t count, double factor);

 private:
  /// A group's remaining members are members_[begin, begin + size).
  struct Group {
    uint64_t quality;
    size_t begin;
    size_t size;
  };
  /// Candidate indices by quality (descending), then index (ascending).
  std::vector<uint32_t> members_;
  std::vector<Group> groups_;
  size_t remaining_ = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_
