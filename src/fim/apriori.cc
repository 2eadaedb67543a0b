#include "fim/apriori.h"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace privbasis {

namespace {

/// Joins two sorted k-itemsets sharing their first k−1 items into a
/// (k+1)-candidate; returns false when they do not share the prefix.
bool JoinPrefix(const Itemset& a, const Itemset& b, std::vector<Item>* out) {
  const size_t k = a.size();
  for (size_t i = 0; i + 1 < k; ++i) {
    if (a[i] != b[i]) return false;
  }
  if (a[k - 1] >= b[k - 1]) return false;
  out->assign(a.begin(), a.end());
  out->push_back(b[k - 1]);
  return true;
}

/// Downward-closure check: every k-subset of `candidate` must be frequent.
bool AllSubsetsFrequent(
    const std::vector<Item>& candidate,
    const std::unordered_set<std::vector<Item>, ItemVectorHash>& frequent) {
  std::vector<Item> sub(candidate.size() - 1);
  for (size_t skip = 0; skip < candidate.size(); ++skip) {
    size_t j = 0;
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) sub[j++] = candidate[i];
    }
    if (!frequent.contains(sub)) return false;
  }
  return true;
}

}  // namespace

Result<MiningResult> MineApriori(const TransactionDatabase& db,
                                 const MiningOptions& options) {
  VerticalIndex index(db);
  return MineApriori(db, index, options);
}

Result<MiningResult> MineApriori(const TransactionDatabase& db,
                                 const VerticalIndex& index,
                                 const MiningOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  MiningResult result;

  // Level 1 from the precomputed item supports.
  std::vector<FrequentItemset> level;
  for (Item it = 0; it < db.UniverseSize(); ++it) {
    uint64_t sup = db.ItemSupports()[it];
    if (sup >= options.min_support) {
      level.push_back(FrequentItemset{Itemset{it}, sup});
    }
  }
  std::sort(level.begin(), level.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });

  size_t level_num = 1;
  while (!level.empty()) {
    for (auto& fi : level) result.itemsets.push_back(fi);
    if (options.max_patterns != 0 &&
        result.itemsets.size() > options.max_patterns) {
      // Truncation contract: keep the canonically first max_patterns of
      // the patterns collected before the abort.
      SortCanonical(&result.itemsets);
      result.itemsets.resize(options.max_patterns);
      result.aborted = true;
      return result;
    }
    if (options.max_length != 0 && level_num >= options.max_length) break;

    // Hash of this level for the prune step.
    std::unordered_set<std::vector<Item>, ItemVectorHash> frequent;
    frequent.reserve(level.size() * 2);
    for (const auto& fi : level) {
      frequent.emplace(fi.items.begin(), fi.items.end());
    }

    // Join step: pairs sharing a (k−1)-prefix. `level` is sorted
    // lexicographically, so joinable partners are contiguous. Candidates
    // batch into bounded chunks counted by one SupportOfMany call each —
    // the pool fans the queries out and reuses the per-thread query
    // scratch instead of paying one dispatch per candidate, while the
    // chunk cap keeps the level-2 all-pairs join (every pair of frequent
    // items is a candidate) from materializing O(F²) itemsets at once.
    constexpr size_t kCandidateChunk = 1 << 16;
    std::vector<Itemset> candidates;
    std::vector<uint64_t> supports;
    std::vector<FrequentItemset> next;
    // A fired cancel token stops the batch mid-chunk; the partially
    // counted supports are discarded with the whole level.
    auto flush = [&]() -> Status {
      supports.resize(candidates.size());
      index.SupportOfMany(candidates, std::span<uint64_t>(supports),
                          options.num_threads, options.cancel);
      if (IsCancelled(options.cancel)) {
        return Status::Cancelled("apriori mine cancelled mid-scan");
      }
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (supports[c] >= options.min_support) {
          next.push_back(
              FrequentItemset{std::move(candidates[c]), supports[c]});
        }
      }
      candidates.clear();
      return Status::OK();
    };
    std::vector<Item> candidate;
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        if (!JoinPrefix(level[i].items, level[j].items, &candidate)) break;
        if (!AllSubsetsFrequent(candidate, frequent)) continue;
        candidates.push_back(Itemset::FromSorted(candidate));
        if (candidates.size() >= kCandidateChunk) {
          PRIVBASIS_RETURN_NOT_OK(flush());
        }
      }
    }
    PRIVBASIS_RETURN_NOT_OK(flush());
    level = std::move(next);
    ++level_num;
  }

  SortCanonical(&result.itemsets);
  return result;
}

}  // namespace privbasis
