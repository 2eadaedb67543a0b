#include "graph/bron_kerbosch.h"

#include <algorithm>

namespace privbasis {

namespace {

/// Recursive Bron–Kerbosch over dense node indices.
/// R: current clique; P: candidates; X: already-processed (exclusion) set.
/// The pivot u is chosen from P ∪ X maximizing |P ∩ N(u)|, and only
/// P \ N(u) is branched on (Tomita et al. 2006). Returns at once when
/// `cancel` has fired.
void Expand(const ItemGraph& g, const CancelToken* cancel,
            std::vector<size_t>* r, std::vector<size_t> p,
            std::vector<size_t> x,
            std::vector<std::vector<size_t>>* cliques) {
  if (IsCancelled(cancel)) return;
  if (p.empty() && x.empty()) {
    cliques->push_back(*r);
    return;
  }
  // Pivot selection.
  size_t pivot = 0;
  size_t best_cover = 0;
  bool have_pivot = false;
  for (const auto* side : {&p, &x}) {
    for (size_t u : *side) {
      size_t cover = 0;
      for (size_t v : p) {
        if (g.HasEdgeByIndex(u, v)) ++cover;
      }
      if (!have_pivot || cover > best_cover) {
        have_pivot = true;
        pivot = u;
        best_cover = cover;
      }
    }
  }
  std::vector<size_t> branch;
  for (size_t v : p) {
    if (!g.HasEdgeByIndex(pivot, v)) branch.push_back(v);
  }
  for (size_t v : branch) {
    std::vector<size_t> p_next, x_next;
    for (size_t w : p) {
      if (g.HasEdgeByIndex(v, w)) p_next.push_back(w);
    }
    for (size_t w : x) {
      if (g.HasEdgeByIndex(v, w)) x_next.push_back(w);
    }
    r->push_back(v);
    Expand(g, cancel, r, std::move(p_next), std::move(x_next), cliques);
    r->pop_back();
    p.erase(std::find(p.begin(), p.end(), v));
    x.push_back(v);
  }
}

}  // namespace

std::vector<Itemset> FindMaximalCliques(const ItemGraph& graph,
                                        size_t min_size,
                                        const CancelToken* cancel) {
  std::vector<std::vector<size_t>> raw;
  std::vector<size_t> r, p, x;
  p.resize(graph.NumNodes());
  for (size_t i = 0; i < p.size(); ++i) p[i] = i;
  Expand(graph, cancel, &r, std::move(p), std::move(x), &raw);

  std::vector<Itemset> cliques;
  cliques.reserve(raw.size());
  for (auto& idxs : raw) {
    if (idxs.size() < min_size) continue;
    std::vector<Item> members;
    members.reserve(idxs.size());
    for (size_t i : idxs) members.push_back(graph.NodeAt(i));
    cliques.push_back(Itemset(std::move(members)));
  }
  std::sort(cliques.begin(), cliques.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  return cliques;
}

}  // namespace privbasis
