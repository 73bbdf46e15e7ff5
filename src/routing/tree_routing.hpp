// Tree routings (paper Section 3, Lemma 2).
//
// A (unidirectional) tree routing from x to a separating set M connects x to
// exactly `width` distinct nodes of M by internally node-disjoint paths that
// contain no node of M except their endpoint ("first occurrence"), and uses
// the direct edge whenever x is adjacent to a chosen endpoint. Killing all
// `width` paths of a tree routing requires at least `width` faults when x is
// non-faulty (Lemma 1) — that observation is what every construction in the
// paper leans on.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// A tree routing: `paths[i]` runs from `source` to a distinct node of the
/// target set, direct-edge paths first, then shortest-first.
struct TreeRouting {
  Node source = 0;
  std::vector<Path> paths;

  /// The endpoints in M reached by the paths.
  std::vector<Node> endpoints() const;
};

/// Builds a tree routing of exactly `width` paths from x to `target_set`.
/// Throws ContractViolation if fewer than `width` disjoint paths exist
/// (i.e. the target set does not (width)-separate x in the Menger sense).
/// When more than `width` paths exist, direct-edge paths are kept first and
/// the remainder are chosen shortest-first.
TreeRouting build_tree_routing(const Graph& g, Node x,
                               const std::vector<Node>& target_set,
                               std::uint32_t width);

/// Checks the definition: paths start at x, end at distinct members of
/// target_set, are simple paths of g, touch target_set only at their
/// endpoint, are internally node-disjoint, and use the direct edge whenever
/// the endpoint is adjacent to x.
bool validate_tree_routing(const Graph& g, const TreeRouting& tr,
                           const std::vector<Node>& target_set);

/// Installs the tree routing's paths as routes (x -> endpoint). In a
/// bidirectional table this also defines endpoint -> x along the mirror.
void install_tree_routing(RouteTableBuilder& table, const TreeRouting& tr);

}  // namespace ftr
