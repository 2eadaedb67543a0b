// Lightweight helpers shared by the micro benches (kept separate from
// bench_common.h, which pulls in the whole sweep harness).
#ifndef PRIVBASIS_BENCH_BENCH_UTIL_H_
#define PRIVBASIS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/basis.h"
#include "data/transaction_db.h"

namespace privbasis::bench {

/// Item ids by descending support, ties by ascending id.
inline std::vector<Item> ItemsBySupport(const TransactionDatabase& db) {
  const std::vector<uint64_t>& supports = db.ItemSupports();
  std::vector<Item> order(supports.size());
  std::iota(order.begin(), order.end(), Item{0});
  std::stable_sort(order.begin(), order.end(), [&](Item a, Item b) {
    return supports[a] > supports[b];
  });
  return order;
}

/// Random itemsets over the most frequent items — the regime where the
/// dense bitmap backend engages. Shared by the micro benches and the
/// smoke suite so their "dense query" workloads stay identical.
inline std::vector<Itemset> DenseQueries(const TransactionDatabase& db,
                                         size_t count, size_t size,
                                         uint64_t seed) {
  std::vector<Item> order = ItemsBySupport(db);
  const size_t pool = std::min<size_t>(order.size(), 64);
  Rng rng(seed);
  std::vector<Itemset> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<Item> items;
    for (size_t j = 0; j < size; ++j) {
      items.push_back(order[rng.UniformInt(pool)]);
    }
    queries.push_back(Itemset(std::move(items)));
  }
  return queries;
}

/// Bases of the given width and length over the most frequent items.
inline BasisSet MakeFrequentItemBasis(const TransactionDatabase& db,
                                      size_t width, size_t length) {
  std::vector<Item> order = ItemsBySupport(db);
  BasisSet basis;
  size_t cursor = 0;
  for (size_t i = 0; i < width; ++i) {
    std::vector<Item> items;
    for (size_t j = 0; j < length; ++j) {
      items.push_back(order[cursor++ % order.size()]);
    }
    basis.Add(Itemset(std::move(items)));
  }
  return basis;
}

}  // namespace privbasis::bench

#endif  // PRIVBASIS_BENCH_BENCH_UTIL_H_
