#include "data/transaction_db.h"

#include <algorithm>

#include "common/math_util.h"

namespace privbasis {

void TransactionDatabase::Builder::AddTransaction(std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
}

void TransactionDatabase::Builder::AddTransaction(const Itemset& items) {
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
}

Result<TransactionDatabase> TransactionDatabase::Builder::Build() && {
  uint32_t universe = universe_size_;
  uint32_t max_item = 0;
  for (Item it : items_) max_item = std::max(max_item, it);
  if (universe == 0) {
    universe = items_.empty() ? 0 : max_item + 1;
  } else if (!items_.empty() && max_item >= universe) {
    return Status::InvalidArgument(
        "item id " + std::to_string(max_item) +
        " exceeds declared universe size " + std::to_string(universe));
  }
  return TransactionDatabase(universe, std::move(items_),
                             std::move(offsets_));
}

TransactionDatabase::TransactionDatabase(uint32_t universe_size,
                                         std::vector<Item> items,
                                         std::vector<uint64_t> offsets)
    : universe_size_(universe_size),
      items_(std::move(items)),
      offsets_(std::move(offsets)) {
  item_supports_.assign(universe_size_, 0);
  for (Item it : items_) ++item_supports_[it];
  items_by_support_ = DescendingOrder(item_supports_);
}

uint64_t TransactionDatabase::SupportOf(const Itemset& itemset) const {
  if (itemset.empty()) return NumTransactions();
  uint64_t support = 0;
  for (size_t i = 0; i < NumTransactions(); ++i) {
    if (itemset.IsSubsetOf(Transaction(i))) ++support;
  }
  return support;
}

}  // namespace privbasis
