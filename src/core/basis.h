// θ-basis sets (paper Definition 2): a family B = {B1..Bw} of item sets
// such that every θ-frequent itemset is a subset of some basis. The
// candidate set C(B) (Definition 3) is the union of all subsets of the
// bases — the space PrivBasis reconstructs noisy frequencies over.
#ifndef PRIVBASIS_CORE_BASIS_H_
#define PRIVBASIS_CORE_BASIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/itemset.h"

namespace privbasis {

/// A basis set. Order of bases is not semantically meaningful but is kept
/// stable for determinism.
class BasisSet {
 public:
  BasisSet() = default;
  explicit BasisSet(std::vector<Itemset> bases) : bases_(std::move(bases)) {}

  /// The paper's w.
  size_t Width() const { return bases_.size(); }

  /// The paper's ℓ = max_i |B_i|; 0 when empty.
  size_t Length() const;

  bool Empty() const { return bases_.empty(); }
  const std::vector<Itemset>& bases() const { return bases_; }
  const Itemset& basis(size_t i) const { return bases_[i]; }

  void Add(Itemset basis) { bases_.push_back(std::move(basis)); }

  std::string ToString() const;

 private:
  std::vector<Itemset> bases_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_BASIS_H_
