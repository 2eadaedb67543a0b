// Algorithm 2 (ConstructBasisSet): build a basis set covering all maximal
// cliques of the frequent-pairs graph (F, P), then greedily reshape it to
// minimize the average-case error variance over the queries Q = F ∪ P:
//
//   B1 <- maximal cliques of size >= 2          (Proposition 5)
//   B2 <- items of F \ P packed into triples    (2^{l-1}/l² minimal at l=3)
//   merge pairs of B1 while that reduces EV     (Proposition 4)
//   dissolve B2 bases into smallest others while that reduces EV
#ifndef PRIVBASIS_CORE_CONSTRUCT_BASIS_H_
#define PRIVBASIS_CORE_CONSTRUCT_BASIS_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/basis.h"
#include "data/itemset.h"

namespace privbasis {

struct ConstructBasisOptions {
  /// Hard cap on any basis length: merges/moves that would exceed it are
  /// not considered (the paper limits ℓ to at most 12 — §4.2 running-time
  /// analysis).
  size_t max_basis_length = 12;
  /// Cooperative cancellation, polled once per Bron–Kerbosch call
  /// (Line 2), per merge round (Line 4) and per dissolve round (Line 5);
  /// a fired token returns kCancelled. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
};

/// Builds a basis set from frequent items F and frequent pairs P. Each
/// pair must have exactly two items; pair endpoints missing from F are
/// treated as members of F. Purely post-processing — never touches the
/// dataset (this is what keeps Algorithm 3's step 4 free of privacy cost).
Result<BasisSet> ConstructBasisSet(const std::vector<Item>& freq_items,
                                   const std::vector<Itemset>& freq_pairs,
                                   const ConstructBasisOptions& options = {});

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_CONSTRUCT_BASIS_H_
