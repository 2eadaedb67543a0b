#include "core/construct_basis.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "core/error_variance.h"
#include "graph/bron_kerbosch.h"
#include "graph/graph.h"

namespace privbasis {

namespace {

/// Q: F's singletons, then P's pairs (repeats kept), with an index over
/// it. Every query is a singleton or a pair, so the queries inside a
/// basis are found from its ≤ ℓ items and ≤ ℓ(ℓ−1)/2 item pairs instead
/// of by scanning Q.
class QuerySet {
 public:
  QuerySet(const std::vector<Item>& singletons,
           const std::vector<Itemset>& pairs) {
    for (Item item : singletons) {
      singletons_.emplace(item, static_cast<uint32_t>(items_.size()));
      items_.emplace_back(item, item);
    }
    num_singletons_ = items_.size();
    for (const Itemset& pair : pairs) {
      pairs_[PairKey(pair[0], pair[1])].push_back(
          static_cast<uint32_t>(items_.size()));
      items_.emplace_back(pair[0], pair[1]);
    }
  }

  size_t size() const { return items_.size(); }

  /// Indices of the queries inside the sorted `items`, ascending. Valid
  /// until the next call.
  const std::vector<uint32_t>& Inside(std::span<const Item> items) {
    inside_.clear();
    for (size_t a = 0; a < items.size(); ++a) {
      if (auto it = singletons_.find(items[a]); it != singletons_.end()) {
        inside_.push_back(it->second);
      }
      for (size_t b = a + 1; b < items.size(); ++b) {
        auto it = pairs_.find(PairKey(items[a], items[b]));
        if (it != pairs_.end()) {
          inside_.insert(inside_.end(), it->second.begin(), it->second.end());
        }
      }
    }
    std::sort(inside_.begin(), inside_.end());
    return inside_;
  }

  bool IsInside(uint32_t q, const Itemset& basis) const {
    return basis.Contains(items_[q].first) &&
           basis.Contains(items_[q].second);
  }

  /// 1/2^{len−|q|}: what a basis of length `len` containing q adds to
  /// inv_q = Σ_{B ⊇ q} 1/2^{|B|−|q|}.
  double Share(size_t len, uint32_t q) const {
    return 1.0 / VarianceUnits(len, q < num_singletons_ ? 1 : 2);
  }

  /// inv[q] += sign · Share(|basis|, q) for every query inside `basis`.
  void AddBasis(const Itemset& basis, double sign, std::vector<double>* inv) {
    for (uint32_t q : Inside(basis.items())) {
      (*inv)[q] += sign * Share(basis.size(), q);
    }
  }

 private:
  static uint64_t PairKey(Item lo, Item hi) {
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  /// Per query, its items; a singleton repeats its item.
  std::vector<std::pair<Item, Item>> items_;
  size_t num_singletons_ = 0;
  std::unordered_map<Item, uint32_t> singletons_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> pairs_;
  std::vector<uint32_t> inside_;
};

bool SharesItem(const Itemset& a, const Itemset& b) {
  const Item* x = a.begin();
  const Item* y = b.begin();
  while (x != a.end() && y != b.end()) {
    if (*x == *y) return true;
    if (*x < *y) {
      ++x;
    } else {
      ++y;
    }
  }
  return false;
}

}  // namespace

Result<BasisSet> ConstructBasisSet(const std::vector<Item>& freq_items,
                                   const std::vector<Itemset>& freq_pairs,
                                   const ConstructBasisOptions& options) {
  for (const auto& pair : freq_pairs) {
    if (pair.size() != 2) {
      return Status::InvalidArgument("frequent pair must have 2 items, got " +
                                     pair.ToString());
    }
  }
  if (options.max_basis_length < 3) {
    return Status::InvalidArgument("max_basis_length must be >= 3");
  }

  // Line 2: maximal cliques (size >= 2) of the graph given by P.
  ItemGraph graph = ItemGraph::FromItemsAndPairs(freq_items, freq_pairs);
  std::vector<Itemset> b1 = FindMaximalCliques(graph, 2, options.cancel);
  if (IsCancelled(options.cancel)) {
    return Status::Cancelled("basis construction cancelled");
  }

  // The length cap is a hard constraint (BasisFreq materializes 2^|Bi|
  // bins), but maximal cliques can exceed it. Split each oversized clique
  // into length-capped bases that still cover all of its *edges* (the
  // queries P contains); itemsets longer than the cap are inherently
  // uncoverable under a cap, which is why the paper keeps ℓ at 12.
  std::vector<Itemset> capped;
  for (auto& clique : b1) {
    if (clique.size() <= options.max_basis_length) {
      capped.push_back(std::move(clique));
      continue;
    }
    // Greedy edge cover: start a basis from an uncovered edge, grow it
    // with the member that covers the most uncovered edges.
    const auto& members = clique.items();
    std::unordered_set<uint64_t> covered;  // edge key = lo << 32 | hi
    auto edge_key = [](Item a, Item b) {
      return (static_cast<uint64_t>(std::min(a, b)) << 32) |
             static_cast<uint64_t>(std::max(a, b));
    };
    auto find_uncovered = [&]() -> std::pair<size_t, size_t> {
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          if (!covered.contains(edge_key(members[i], members[j]))) {
            return {i, j};
          }
        }
      }
      return {members.size(), members.size()};
    };
    while (true) {
      auto [i, j] = find_uncovered();
      if (i >= members.size()) break;
      std::vector<Item> basis{members[i], members[j]};
      while (basis.size() < options.max_basis_length) {
        size_t best_gain = 0;
        Item best_item = 0;
        for (Item candidate : members) {
          if (std::find(basis.begin(), basis.end(), candidate) !=
              basis.end()) {
            continue;
          }
          size_t gain = 0;
          for (Item present : basis) {
            if (!covered.contains(edge_key(candidate, present))) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best_item = candidate;
          }
        }
        if (best_gain == 0) break;
        basis.push_back(best_item);
      }
      for (size_t a = 0; a < basis.size(); ++a) {
        for (size_t b = a + 1; b < basis.size(); ++b) {
          covered.insert(edge_key(basis[a], basis[b]));
        }
      }
      capped.push_back(Itemset(std::move(basis)));
    }
  }
  b1 = std::move(capped);

  // Line 3: items in F but not in P, packed into at most-3-item groups.
  std::unordered_set<Item> in_pairs;
  for (const auto& pair : freq_pairs) {
    in_pairs.insert(pair[0]);
    in_pairs.insert(pair[1]);
  }
  std::vector<Item> loose;
  std::unordered_set<Item> seen;
  for (Item it : freq_items) {
    if (!in_pairs.contains(it) && seen.insert(it).second) loose.push_back(it);
  }
  std::vector<Itemset> b2;
  for (size_t i = 0; i < loose.size(); i += 3) {
    std::vector<Item> group(loose.begin() + i,
                            loose.begin() + std::min(i + 3, loose.size()));
    b2.push_back(Itemset(std::move(group)));
  }

  // Queries Q: frequencies we intend to answer well — F's singletons and
  // P's pairs (the paper's "itemsets in F and P").
  std::vector<Item> singletons;
  seen.clear();
  for (Item it : freq_items) {
    if (seen.insert(it).second) singletons.push_back(it);
  }
  for (const auto& pair : freq_pairs) {
    for (Item it : pair) {
      if (seen.insert(it).second) singletons.push_back(it);
    }
  }
  if (singletons.size() + freq_pairs.size() >= UINT32_MAX) {
    return Status::InvalidArgument("too many frequent items and pairs");
  }
  QuerySet queries(singletons, freq_pairs);

  // One poll per Line-4 merge round and per Line-5 dissolve round.
  auto cancelled = [&options] {
    failpoint::Hit("construct_basis_round");
    return IsCancelled(options.cancel);
  };

  // EV(B) = w²·Σ_q 1/inv_q with inv_q = Σ_{B ⊇ q} 1/2^{|B|−|q|}. Every
  // term of inv_q is a power of two in [2^{1−ℓ}, 1] and there are at most
  // w < 2^{53−ℓ} of them, so inv_q is exact in any summation order: it is
  // kept up to date by subtracting replaced bases and adding their
  // successors, and always equals a from-scratch recount bit for bit. Sums over queries that round (a
  // merge delta, s, the Line-5 EV) run in ascending query index.
  std::vector<double> inv(queries.size(), 0.0);
  for (const auto& basis : b1) queries.AddBasis(basis, 1.0, &inv);
  for (const auto& basis : b2) queries.AddBasis(basis, 1.0, &inv);
  auto recip = [](double v) { return v > 0.0 ? 1.0 / v : 0.0; };

  // Line 4: greedily merge pairs of B1 while EV decreases.
  //
  // A candidate merge (i, j) only perturbs inv_q for the queries inside
  // Bi ∪ Bj, so its EV change is a delta summed over them, found through
  // the query index. Deltas are cached per slot pair. A merge moves inv_q
  // only for the queries inside the merged basis, so afterwards only the
  // candidates with a basis that shares an item with it are re-evaluated.
  // Merged-away slots leave `live`, which keeps the surviving bases in
  // their order.
  struct Candidate {
    double delta = 0.0;
    bool fits = false;  // |Bi ∪ Bj| ≤ the length cap
  };
  const size_t n0 = b1.size();
  // Slot pairs i < j, as a row-major upper triangle.
  auto id_of = [n0](size_t i, size_t j) {
    return i * (2 * n0 - i - 1) / 2 + (j - i - 1);
  };
  std::vector<Candidate> candidates(n0 < 2 ? 0 : n0 * (n0 - 1) / 2);
  std::vector<Item> merged;
  auto evaluate = [&](size_t i, size_t j) {
    Candidate& c = candidates[id_of(i, j)];
    merged.clear();
    std::set_union(b1[i].begin(), b1[i].end(), b1[j].begin(), b1[j].end(),
                   std::back_inserter(merged));
    c.fits = merged.size() <= options.max_basis_length;
    if (!c.fits) return;
    double delta = 0.0;
    for (uint32_t q : queries.Inside(merged)) {
      double inv_new = inv[q];
      if (queries.IsInside(q, b1[i])) {
        inv_new -= queries.Share(b1[i].size(), q);
      }
      if (queries.IsInside(q, b1[j])) {
        inv_new -= queries.Share(b1[j].size(), q);
      }
      inv_new += queries.Share(merged.size(), q);
      delta += 1.0 / inv_new - recip(inv[q]);
    }
    c.delta = delta;
  };
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = i + 1; j < n0; ++j) evaluate(i, j);
  }
  std::vector<size_t> live(n0);
  for (size_t i = 0; i < n0; ++i) live[i] = i;
  std::vector<char> touched(n0, 0);
  while (live.size() >= 2) {
    if (cancelled()) return Status::Cancelled("basis construction cancelled");
    const double w = static_cast<double>(live.size() + b2.size());
    double s = 0.0;
    for (double v : inv) s += recip(v);
    double best_ev = w * w * s;
    size_t best_x = 0, best_y = 0;  // positions in `live`
    bool found = false;
    for (size_t x = 0; x < live.size(); ++x) {
      for (size_t y = x + 1; y < live.size(); ++y) {
        const Candidate& c = candidates[id_of(live[x], live[y])];
        if (!c.fits) continue;
        double ev = (w - 1) * (w - 1) * (s + c.delta);
        if (ev < best_ev) {
          best_ev = ev;
          best_x = x;
          best_y = y;
          found = true;
        }
      }
    }
    if (!found) break;
    const size_t into = live[best_x];
    const size_t from = live[best_y];
    queries.AddBasis(b1[into], -1.0, &inv);
    queries.AddBasis(b1[from], -1.0, &inv);
    b1[into] = b1[into].Union(b1[from]);
    queries.AddBasis(b1[into], 1.0, &inv);
    live.erase(live.begin() + static_cast<ptrdiff_t>(best_y));
    for (size_t slot : live) touched[slot] = SharesItem(b1[slot], b1[into]);
    for (size_t x = 0; x < live.size(); ++x) {
      for (size_t y = x + 1; y < live.size(); ++y) {
        if (touched[live[x]] || touched[live[y]]) evaluate(live[x], live[y]);
      }
    }
  }

  // Line 5: try dissolving a B2 basis, moving its items into the smallest
  // bases, while EV decreases. `bases` is B1 then B2; a trial's EV is the
  // cached inv adjusted for the removed basis and the bases that grew.
  std::vector<Itemset> bases;
  bases.reserve(live.size() + b2.size());
  for (size_t slot : live) bases.push_back(std::move(b1[slot]));
  const size_t b2_begin = bases.size();
  for (auto& basis : b2) bases.push_back(std::move(basis));
  auto average_ev = [&](const std::vector<double>& inv_of, size_t width) {
    if (queries.size() == 0) return 0.0;
    const double w2 =
        static_cast<double>(width) * static_cast<double>(width);
    double total = 0.0;
    for (double v : inv_of) total += w2 * (1.0 / v);
    return total / static_cast<double>(queries.size());
  };
  double current_ev = average_ev(inv, bases.size());
  std::vector<std::pair<size_t, Itemset>> grown, best_grown;  // position
  std::vector<double> trial_inv, best_inv;
  while (bases.size() > b2_begin) {
    if (cancelled()) return Status::Cancelled("basis construction cancelled");
    if (bases.size() == 1) break;  // dissolving it would leave no basis
    double best_ev = current_ev;
    size_t best_r = 0;
    bool found = false;
    for (size_t r = b2_begin; r < bases.size(); ++r) {
      // Place each item into the currently-smallest basis with room.
      grown.clear();
      auto current = [&](size_t pos) -> const Itemset& {
        for (const auto& [at, basis] : grown) {
          if (at == pos) return basis;
        }
        return bases[pos];
      };
      bool placed_all = true;
      for (Item it : bases[r]) {
        size_t target = bases.size();
        for (size_t pos = 0; pos < bases.size(); ++pos) {
          if (pos == r) continue;
          const size_t len = current(pos).size();
          if (len >= options.max_basis_length) continue;
          if (target == bases.size() || len < current(target).size()) {
            target = pos;
          }
        }
        if (target == bases.size()) {
          placed_all = false;
          break;
        }
        Itemset next = current(target).With(it);
        auto slot =
            std::find_if(grown.begin(), grown.end(),
                         [&](const auto& g) { return g.first == target; });
        if (slot == grown.end()) {
          grown.emplace_back(target, std::move(next));
        } else {
          slot->second = std::move(next);
        }
      }
      if (!placed_all) continue;
      trial_inv = inv;
      queries.AddBasis(bases[r], -1.0, &trial_inv);
      for (const auto& [at, basis] : grown) {
        queries.AddBasis(bases[at], -1.0, &trial_inv);
        queries.AddBasis(basis, 1.0, &trial_inv);
      }
      const double ev = average_ev(trial_inv, bases.size() - 1);
      if (ev < best_ev) {
        best_ev = ev;
        best_r = r;
        best_grown.swap(grown);
        best_inv.swap(trial_inv);
        found = true;
      }
    }
    if (!found) break;
    for (auto& [at, basis] : best_grown) bases[at] = std::move(basis);
    bases.erase(bases.begin() + static_cast<ptrdiff_t>(best_r));
    inv.swap(best_inv);
    current_ev = best_ev;
  }
  return BasisSet(std::move(bases));
}

}  // namespace privbasis
