#include "dp/exponential_mechanism.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/logspace.h"
#include "common/math_util.h"

namespace privbasis {

GroupedEmPool::GroupedEmPool(std::span<const uint64_t> qualities)
    : GroupedEmPool(qualities, DescendingOrder(qualities)) {}

GroupedEmPool::GroupedEmPool(std::span<const uint64_t> qualities,
                             std::vector<uint32_t> order)
    : members_(std::move(order)) {
  assert(members_.size() == qualities.size());
  remaining_ = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    const uint64_t quality = qualities[members_[i]];
    assert(groups_.empty() || groups_.back().quality > quality ||
           (groups_.back().quality == quality &&
            members_[i - 1] < members_[i]));
    if (groups_.empty() || groups_.back().quality != quality) {
      groups_.push_back(Group{quality, i, 0});
    }
    ++groups_.back().size;
  }
}

void GroupedEmPool::OfferAll(GumbelMaxSampler* sampler, double factor) const {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].size == 0) continue;
    sampler->OfferGroup(g, factor * static_cast<double>(groups_[g].quality),
                        static_cast<double>(groups_[g].size));
  }
}

size_t GroupedEmPool::TakeFrom(size_t group, Rng& rng) {
  Group& g = groups_[group];
  const size_t pick = g.begin + rng.UniformInt(g.size);
  const size_t idx = members_[pick];
  members_[pick] = members_[g.begin + g.size - 1];
  --g.size;
  --remaining_;
  return idx;
}

Result<std::vector<size_t>> GroupedEmPool::SelectK(Rng& rng, size_t count,
                                                   double factor) {
  if (count > remaining_) {
    return Status::InvalidArgument(
        "cannot select " + std::to_string(count) + " of " +
        std::to_string(remaining_) + " remaining candidates");
  }
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t round = 0; round < count; ++round) {
    GumbelMaxSampler sampler(&rng);
    OfferAll(&sampler, factor);
    out.push_back(TakeFrom(sampler.WinnerKey(), rng));
  }
  return out;
}

}  // namespace privbasis
