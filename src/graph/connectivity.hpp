// Node connectivity, minimum vertex cuts, and internally node-disjoint path
// systems, all via vertex-split max-flow (Menger's theorem).
//
// Conventions:
//  * local_node_connectivity(g, x, y) counts the maximum number of
//    internally node-disjoint x-y paths. If {x,y} is an edge, the direct
//    edge counts as one of those paths.
//  * node_connectivity(g) is kappa(G); the paper's graphs have
//    kappa = t + 1. Complete graphs have kappa = n - 1 by convention.
//  * disjoint_paths_to_set(g, x, M) implements the flow formulation of
//    Lemma 2's tree routings: a maximum family of paths from x to distinct
//    nodes of M that are internally node-disjoint AND contain no node of M
//    except their final endpoint ("stop at the first occurrence of a node
//    from M"). Direct edges from x into M can be force-included via `seeds`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace ftr {

/// Maximum number of internally node-disjoint x-y paths (Menger).
std::uint32_t local_node_connectivity(const Graph& g, Node x, Node y);

/// kappa(G). Returns 0 for disconnected graphs and n-1 for complete graphs.
/// Exact but O(n^2) max-flows in the worst case; intended for graphs up to
/// a few thousand nodes (the paper's constructions are all laptop-scale).
std::uint32_t node_connectivity(const Graph& g);

/// A minimum vertex cut of G: a set of kappa(G) nodes whose removal
/// disconnects G. Requires G connected and not complete.
std::vector<Node> min_vertex_cut(const Graph& g);

/// A minimum x-y vertex cut (nodes, excluding x and y). Requires x and y
/// non-adjacent and distinct.
std::vector<Node> min_vertex_cut_between(const Graph& g, Node x, Node y);

/// Maximum family of internally node-disjoint x-y paths. If `want` is set,
/// stops after that many paths. Each returned path starts at x and ends at
/// y; if {x,y} in E the direct edge is one of the paths.
std::vector<Path> disjoint_paths(const Graph& g, Node x, Node y,
                                 std::optional<std::uint32_t> want = {});

/// Maximum family of paths from x to distinct nodes of M, internally
/// node-disjoint, each containing exactly one node of M (its endpoint).
/// Any direct edge from x to a node of M is always used as a length-1 path
/// (this realizes the direct-edge rule in the paper's tree routing
/// definition and is never suboptimal). `avoid` nodes are treated as deleted.
/// x must not be in M or `avoid`, and both must hold only nodes of g. Paths
/// are returned direct-edge paths first.
std::vector<Path> disjoint_paths_to_set(const Graph& g, Node x,
                                        const std::vector<Node>& target_set,
                                        const std::vector<Node>& avoid = {});

/// True if removing `cut` disconnects g (at least two nonempty components
/// among the remaining nodes). Used to validate separating sets.
bool is_separating_set(const Graph& g, const std::vector<Node>& cut);

}  // namespace ftr
