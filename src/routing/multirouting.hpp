// Multiroutings (paper Section 6, "Variations of the model").
//
// Three schemes, reproduced by experiments E11–E13:
//  (1) Full multirouting: t+1 internally node-disjoint routes between every
//      pair -> surviving diameter 1 (at most t faults kill at most t routes).
//  (2) Kernel + concentrator multirouting: the kernel routing augmented with
//      t+1 parallel routes between every pair of concentrator members ->
//      surviving diameter <= 3.
//  (3) The MULT construction: at most two parallel routes around a single
//      separating set M —
//        MULT 1: tree routing from each x not in M to M,
//        MULT 2: tree routings from each member to every member's shell,
//        MULT 3: direct edge routes.
//      The paper sketches this as "similar to the bipolar routing"; the
//      measured diameter (<= 4 in all our runs) is reported by E13.
// Each scheme returns a bidirectional RoutingTable whose per-pair cap is
// its route budget (t+1, t+1 and 2), so the budget is a checked invariant.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// Scheme (1): t+1 disjoint routes between every pair. Requires kappa >= t+1.
RoutingTable build_full_multirouting(const Graph& g, std::uint32_t t);

struct ConcentratorMultirouting {
  RoutingTable table;
  std::vector<Node> m;
  std::uint32_t t = 0;
};

/// Scheme (2): kernel routing plus t+1 parallel routes inside the
/// concentrator. Uses a minimum vertex cut when `m` is absent.
ConcentratorMultirouting build_kernel_multirouting(
    const Graph& g, std::uint32_t t,
    std::optional<std::vector<Node>> m = std::nullopt);

/// Scheme (3): the MULT construction with a hard cap of two routes per pair
/// (routes beyond the cap are dropped, favoring tree-routing coverage; the
/// paper allows "at most two parallel routes").
ConcentratorMultirouting build_mult_routing(
    const Graph& g, std::uint32_t t,
    std::optional<std::vector<Node>> m = std::nullopt);

}  // namespace ftr
