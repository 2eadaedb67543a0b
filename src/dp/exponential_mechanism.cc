#include "dp/exponential_mechanism.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logspace.h"

namespace privbasis {

GroupedEmPool::GroupedEmPool(std::span<const uint64_t> qualities) {
  assert(qualities.size() <= UINT32_MAX);
  remaining_ = qualities.size();
  members_.resize(qualities.size());
  std::iota(members_.begin(), members_.end(), uint32_t{0});
  // Stable LSD radix sort on the complemented digits of the quality:
  // descending quality, and ascending index within a quality because
  // every pass is stable and the input starts in index order. Only the
  // digits the largest quality occupies need a pass; passes whose digit
  // is the same for every member are skipped.
  constexpr unsigned kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const uint64_t max_quality =
      qualities.empty() ? 0 : *std::max_element(qualities.begin(),
                                                 qualities.end());
  const unsigned bits = static_cast<unsigned>(std::bit_width(max_quality));
  std::vector<uint32_t> scratch(members_.size());
  std::vector<size_t> offsets(kDigitMask + 1);
  for (unsigned shift = 0; shift < bits; shift += kDigitBits) {
    auto digit = [&](uint32_t idx) {
      return kDigitMask - ((qualities[idx] >> shift) & kDigitMask);
    };
    std::fill(offsets.begin(), offsets.end(), 0);
    for (uint32_t idx : members_) ++offsets[digit(idx)];
    if (offsets[digit(members_[0])] == members_.size()) continue;
    size_t sum = 0;
    for (size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (uint32_t idx : members_) scratch[offsets[digit(idx)]++] = idx;
    members_.swap(scratch);
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    const uint64_t quality = qualities[members_[i]];
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
