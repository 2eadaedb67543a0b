#include "fim/brute_force.h"

#include <unordered_map>

namespace privbasis {

Result<MiningResult> MineBruteForce(const TransactionDatabase& db,
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

}  // namespace privbasis
