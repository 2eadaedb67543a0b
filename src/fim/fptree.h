// FP-tree (Han et al., "Mining frequent patterns without candidate
// generation"): a prefix tree over transactions with items reordered by
// descending support, plus a per-rank node index for conditional-pattern-
// base extraction.
//
// Cache-conscious arena layout: transactions are filtered to rank paths,
// sorted lexicographically, and merged into a struct-of-arrays node arena
// in DFS pre-order — construction never chases sibling pointers. Children
// are a CSR index sorted by rank (binary-searchable); the header chains of
// the textbook layout are replaced by a contiguous per-rank node index, so
// conditional-pattern-base extraction streams over a flat array.
// Conditional re-ranking is monotone in the parent ranking, which lets the
// bottom-up prefix-path walk emit rank-sorted paths directly (no per-path
// sort); miners that need descending-support iteration use the
// RanksBySupport() permutation instead.
#ifndef PRIVBASIS_FIM_FPTREE_H_
#define PRIVBASIS_FIM_FPTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/transaction_db.h"

namespace privbasis {

/// Immutable FP-tree. Items are referenced by *rank*: the index into this
/// tree's frequent-item table. The global tree ranks by descending
/// support (rank 0 = most frequent); conditional trees keep the relative
/// order of their parent's surviving ranks. Along every root-to-leaf path
/// ranks strictly ascend.
class FpTree {
 public:
  /// Sentinel node/rank index.
  static constexpr uint32_t kNil = 0xffffffffu;

  /// Builds the global tree over all transactions, keeping only items with
  /// support ≥ min_support. Construction fans the filter/map pass over the
  /// thread pool (num_threads 0 = the PRIVBASIS_THREADS env knob); the
  /// tree is identical at every thread count.
  FpTree(const TransactionDatabase& db, uint64_t min_support,
         size_t num_threads = 0);

  /// Number of distinct frequent items (= number of ranks).
  size_t NumRanks() const { return rank_items_.size(); }

  /// True when the tree holds no frequent item.
  bool Empty() const { return rank_items_.empty(); }

  /// The item id behind `rank`.
  Item ItemAt(uint32_t rank) const { return rank_items_[rank]; }

  /// Total support of `rank`'s item within this tree (for conditional
  /// trees: support conditioned on the suffix).
  uint64_t SupportAt(uint32_t rank) const { return rank_supports_[rank]; }

  /// Ranks ordered by descending SupportAt (ties: ascending rank). Top-k
  /// mining iterates this order so its monotone prune stays exact; the
  /// global tree's permutation is the identity.
  const std::vector<uint32_t>& RanksBySupport() const {
    return ranks_by_support_;
  }

  /// Builds the conditional FP-tree of `rank`: the tree of prefix paths of
  /// every node carrying `rank`, filtered to conditional support ≥
  /// min_support. Item ids are preserved; ranks are re-assigned (keeping
  /// the relative order of surviving ranks).
  FpTree ConditionalTree(uint32_t rank, uint64_t min_support) const;

  /// Number of allocated nodes including the root (diagnostics / tests).
  size_t NumNodes() const { return node_rank_.size(); }

  /// Node 0 is the root (rank kNil, parent kNil, count 0).
  uint32_t NodeRank(uint32_t node) const { return node_rank_[node]; }
  uint32_t NodeParent(uint32_t node) const { return node_parent_[node]; }
  uint64_t NodeCount(uint32_t node) const { return node_count_[node]; }

  /// Children of `node` in ascending-rank order (CSR slice).
  std::span<const uint32_t> Children(uint32_t node) const {
    return std::span<const uint32_t>(
        children_.data() + child_offsets_[node],
        children_.data() + child_offsets_[node + 1]);
  }

  /// Every node carrying `rank`, as one contiguous ascending slice
  /// (replaces the textbook header chains).
  std::span<const uint32_t> NodesOfRank(uint32_t rank) const {
    return std::span<const uint32_t>(
        rank_nodes_.data() + rank_node_offsets_[rank],
        rank_nodes_.data() + rank_node_offsets_[rank + 1]);
  }

  /// A rank path inside a flat arena, with multiplicity (construction
  /// detail, public only for the reusable build scratch).
  struct PathRef {
    uint64_t offset;
    uint32_t length;
    uint64_t count;
  };

 private:
  FpTree() = default;

  /// Sorts `paths` (rank sequences inside `data`, each ascending) and
  /// merges them into the node arena, then builds the children and
  /// per-rank CSR indexes, rank supports, and the support permutation.
  /// Requires rank_items_ to be set.
  void BuildFromPaths(const std::vector<uint32_t>& data,
                      std::vector<PathRef>& paths);

  /// Same, but for trees with ≤ 64 ranks: each path is packed into one
  /// 64-bit key (rank r ↦ bit 63−r) with a multiplicity. Descending key
  /// order is hierarchically grouped (every shared prefix is a contiguous
  /// key range, children emerge in ascending rank order), so the merge
  /// runs on integer compares — no path arena, no per-path sort.
  void BuildFromKeys(std::vector<std::pair<uint64_t, uint64_t>>& keyed);

  /// BuildFromKeys for multiplicity-1 keys (the global tree): sorts the
  /// raw 8-byte keys and run-length-encodes duplicates before merging.
  void BuildFromRawKeys(std::vector<uint64_t>& keys);

  /// Stack-merges (key, count) runs already in descending key order.
  void MergeSortedKeyed(
      const std::vector<std::pair<uint64_t, uint64_t>>& keyed);

  /// Node-arena merge + index construction shared by the builders.
  void FinishIndexes();

  // Struct-of-arrays node arena in DFS pre-order; index 0 is the root.
  std::vector<uint32_t> node_rank_;
  std::vector<uint32_t> node_parent_;
  std::vector<uint64_t> node_count_;
  // CSR children, each slice sorted by child rank.
  std::vector<uint64_t> child_offsets_;
  std::vector<uint32_t> children_;
  // Contiguous per-rank node index.
  std::vector<uint64_t> rank_node_offsets_;
  std::vector<uint32_t> rank_nodes_;

  std::vector<Item> rank_items_;         // rank -> item id
  std::vector<uint64_t> rank_supports_;  // rank -> in-tree support
  std::vector<uint32_t> ranks_by_support_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_FIM_FPTREE_H_
