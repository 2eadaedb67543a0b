// Undirected graph over item ids — the paper's θ-frequent-pairs graph
// (Definition 4): one node per frequent item, one edge per frequent pair.
#ifndef PRIVBASIS_GRAPH_GRAPH_H_
#define PRIVBASIS_GRAPH_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/itemset.h"

namespace privbasis {

/// Small undirected graph with item-id nodes. Node count is bounded by λ
/// (a few hundred), so adjacency is a dense matrix internally.
class ItemGraph {
 public:
  ItemGraph() = default;

  /// Adds an isolated node (no-op if present).
  void AddNode(Item node);

  /// Adds an edge, inserting both endpoints as needed. Self-loops are
  /// ignored. Idempotent.
  void AddEdge(Item a, Item b);

  /// Builds the frequent-pairs graph from frequent items F and frequent
  /// pairs P (each pair itemset must have exactly 2 items; both endpoints
  /// are added as nodes even if absent from `items`).
  static ItemGraph FromItemsAndPairs(const std::vector<Item>& items,
                                     const std::vector<Itemset>& pairs);

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return num_edges_; }

  bool HasNode(Item node) const { return index_.contains(node); }
  bool HasEdge(Item a, Item b) const;

  // -- dense-index access for clique algorithms (insertion order) ------
  Item NodeAt(size_t idx) const { return nodes_[idx]; }
  bool HasEdgeByIndex(size_t a, size_t b) const {
    return adjacency_[a][b] != 0;
  }

 private:
  size_t EnsureNode(Item node);

  std::vector<Item> nodes_;
  std::unordered_map<Item, size_t> index_;
  std::vector<std::vector<uint8_t>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_GRAPH_GRAPH_H_
