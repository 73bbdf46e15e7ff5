// The surviving route graph R(G, rho)/F (paper Section 2): all non-faulty
// nodes, with an arc x -> y iff rho(x, y) exists and no node of the route is
// faulty. For multiroutings (Section 6) the arc exists iff at least one of
// the pair's routes survives.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// Builds R(G, rho)/F.
Digraph surviving_graph(const RoutingTable& table,
                        const std::vector<Node>& faults);

/// diam R(G, rho)/F; kUnreachable if some ordered pair of survivors cannot
/// reach each other through surviving routes.
std::uint32_t surviving_diameter(const RoutingTable& table,
                                 const std::vector<Node>& faults);

}  // namespace ftr
