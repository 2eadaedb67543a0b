// Bron–Kerbosch maximal-clique enumeration with Tomita-style pivoting —
// the classic algorithm the paper cites ([12], Algorithm 457) for finding
// all maximal cliques of the θ-frequent-pairs graph (Proposition 5).
#ifndef PRIVBASIS_GRAPH_BRON_KERBOSCH_H_
#define PRIVBASIS_GRAPH_BRON_KERBOSCH_H_

#include <vector>

#include "common/cancel.h"
#include "data/itemset.h"
#include "graph/graph.h"

namespace privbasis {

/// Enumerates the maximal cliques of `graph` with at least `min_size`
/// nodes (the default keeps isolated nodes as cliques of size 1; the
/// paper's Algorithm 2 uses min_size = 2 for B1). Output is
/// deterministic: cliques sorted by descending size, then
/// lexicographically.
///
/// A graph on n nodes can have 3^(n/3) maximal cliques (Moon–Moser), so
/// the enumeration polls `cancel` once per recursive call. Once it fires
/// the enumeration stops and the result is incomplete: the caller must
/// check the token before using it. nullptr = not cancellable.
std::vector<Itemset> FindMaximalCliques(const ItemGraph& graph,
                                        size_t min_size = 1,
                                        const CancelToken* cancel = nullptr);

}  // namespace privbasis

#endif  // PRIVBASIS_GRAPH_BRON_KERBOSCH_H_
