#include "graph/graph.h"

#include <cassert>

namespace privbasis {

size_t ItemGraph::EnsureNode(Item node) {
  auto [it, inserted] = index_.try_emplace(node, nodes_.size());
  if (inserted) {
    nodes_.push_back(node);
    for (auto& row : adjacency_) row.push_back(0);
    adjacency_.emplace_back(nodes_.size(), 0);
  }
  return it->second;
}

void ItemGraph::AddNode(Item node) { EnsureNode(node); }

void ItemGraph::AddEdge(Item a, Item b) {
  if (a == b) return;
  size_t ia = EnsureNode(a);
  size_t ib = EnsureNode(b);
  if (adjacency_[ia][ib]) return;
  adjacency_[ia][ib] = 1;
  adjacency_[ib][ia] = 1;
  ++num_edges_;
}

ItemGraph ItemGraph::FromItemsAndPairs(const std::vector<Item>& items,
                                       const std::vector<Itemset>& pairs) {
  ItemGraph g;
  for (Item it : items) g.AddNode(it);
  for (const auto& pair : pairs) {
    assert(pair.size() == 2);
    g.AddEdge(pair[0], pair[1]);
  }
  return g;
}

bool ItemGraph::HasEdge(Item a, Item b) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  if (ia == index_.end() || ib == index_.end()) return false;
  return adjacency_[ia->second][ib->second] != 0;
}

}  // namespace privbasis
