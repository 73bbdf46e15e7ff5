// Fault-set generation for the verification harness:
//  * uniform random f-subsets,
//  * the nodes ranked by route load — an adversary who knows the routing
//    attacks the busiest nodes first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// `count` uniform random f-subsets of {0..n-1}, each sorted.
std::vector<std::vector<Node>> random_fault_sets(std::size_t n, std::size_t f,
                                                 std::size_t count, Rng& rng);

/// Nodes ranked by how many routes of the table pass through them
/// (descending). The top of this ranking is what a topology-aware adversary
/// knocks out first.
std::vector<Node> nodes_by_route_load(const RoutingTable& table);

}  // namespace ftr
