// Edge faults (paper Section 1): "We handle the case of faulty edges by
// assuming that one of the endpoints of the faulty edges is a faulty node,
// an assumption that can only weaken our results."
//
// This module makes that reduction explicit and testable:
//  * surviving_graph_with_edge_faults computes the TRUE surviving route
//    graph under mixed node+edge faults (a route dies iff it contains a
//    faulty node or traverses a faulty edge);
//  * reduce_edge_faults_to_nodes performs the paper's substitution, and the
//    tests verify the reduction is conservative — the reduced surviving
//    graph is always a subgraph of the true one, so any (d, f) bound proven
//    in the node model carries over.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// An undirected edge fault, stored with u < v.
struct EdgeFault {
  Node u;
  Node v;
};

/// Canonicalizes (orders endpoints of) an edge fault.
EdgeFault make_edge_fault(Node a, Node b);

/// The true surviving route graph under node faults + edge faults: an arc
/// (x, y) survives iff the route exists, x and y and all intermediates are
/// non-faulty, and no traversed edge is faulty.
Digraph surviving_graph_with_edge_faults(const RoutingTable& table,
                                         const std::vector<Node>& node_faults,
                                         const std::vector<EdgeFault>& edge_faults);

/// The paper's reduction: every edge fault is charged to one endpoint,
/// producing a pure node-fault set of size |node_faults| + |edge_faults|
/// (or less when charges coincide). The chosen endpoint is the one with the
/// smaller id — any fixed rule is valid; the reduction is conservative
/// regardless.
std::vector<Node> reduce_edge_faults_to_nodes(
    const std::vector<Node>& node_faults,
    const std::vector<EdgeFault>& edge_faults);

}  // namespace ftr
