// Experiments E1/E2 in miniature: structural checks of the kernel routing
// plus exhaustive verification of Theorem 3 ((2t, t)-tolerant) and
// Theorem 4 ((4, floor(t/2))-tolerant) on small graphs.
#include "routing/kernel.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

TEST(Kernel, BuildsOnMinimumCutByDefault) {
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  EXPECT_EQ(kr.separating_set.size(), 3u);
  EXPECT_TRUE(is_separating_set(gg.graph, kr.separating_set));
  EXPECT_NO_THROW(kr.table.validate(gg.graph));
}

TEST(Kernel, AcceptsExplicitSeparatingSet) {
  const auto gg = cycle_graph(8);
  const auto kr = build_kernel_routing(gg.graph, 1, {{0u, 4u}});
  EXPECT_EQ(kr.separating_set, (std::vector<Node>{0, 4}));
}

TEST(Kernel, RejectsNonSeparatingSet) {
  const auto gg = cycle_graph(8);
  EXPECT_THROW(build_kernel_routing(gg.graph, 1, {{0u, 1u}}),
               ContractViolation);
}

TEST(Kernel, RejectsTooSmallSet) {
  const auto gg = cycle_graph(8);
  EXPECT_THROW(build_kernel_routing(gg.graph, 2, {{0u, 4u}}),
               ContractViolation);
}

TEST(Kernel, EveryOutsideNodeHasWidthTPlusOneRoutes) {
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto kr = build_kernel_routing(gg.graph, 3);
  const std::set<Node> m(kr.separating_set.begin(), kr.separating_set.end());
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (m.count(x)) continue;
    std::size_t routes_to_m = 0;
    for (Node target : kr.separating_set) {
      if (kr.table.has_route(x, target)) ++routes_to_m;
    }
    EXPECT_GE(routes_to_m, 4u) << "node " << x;
  }
}

TEST(Kernel, AdjacentPairsUseDirectEdges) {
  const auto gg = petersen_graph();
  const auto kr = build_kernel_routing(gg.graph, 2);
  for (const auto& [u, v] : gg.graph.edges()) {
    ASSERT_TRUE(kr.table.has_route(u, v));
    EXPECT_EQ(*kr.table.route(u, v), (Path{u, v}));
  }
}

TEST(Kernel, NoFaultsSurvivingGraphConnected) {
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  EXPECT_LT(surviving_diameter(kr.table, {}), kUnreachable);
}

// ---- Theorem 3: (2t, t)-tolerance, exhaustively on small graphs. ----

TEST(Kernel, Theorem3CycleExhaustive) {
  const auto gg = cycle_graph(10);  // t = 1
  const auto kr = build_kernel_routing(gg.graph, 1);
  EXPECT_LE(lex_worst_diameter(kr.table, 1), std::max(2u * 1, 4u));
}

TEST(Kernel, Theorem3CccExhaustive) {
  const auto gg = cube_connected_cycles(3);  // t = 2
  const auto kr = build_kernel_routing(gg.graph, 2);
  EXPECT_LE(lex_worst_diameter(kr.table, 2), 4u);  // max{2t,4} = 4
}

TEST(Kernel, Theorem3TorusExhaustive) {
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto kr = build_kernel_routing(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(kr.table, 3), 6u);  // 2t = 6
}

TEST(Kernel, Theorem3HypercubeExhaustive) {
  const auto gg = hypercube(4);  // t = 3
  const auto kr = build_kernel_routing(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(kr.table, 3), 6u);
}

// ---- Theorem 4: (4, floor(t/2))-tolerance. ----

TEST(Kernel, Theorem4TorusHalfFaults) {
  const auto gg = torus_graph(4, 4);  // t = 3, floor(t/2) = 1
  const auto kr = build_kernel_routing(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(kr.table, 1), 4u);
}

TEST(Kernel, Theorem4HypercubeHalfFaults) {
  const auto gg = hypercube(4);  // t = 3, floor(t/2) = 1
  const auto kr = build_kernel_routing(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(kr.table, 1), 4u);
}

TEST(Kernel, Theorem4WrappedButterflyHalfFaults) {
  const auto gg = wrapped_butterfly(3);  // t = 3
  const auto kr = build_kernel_routing(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(kr.table, 1), 4u);
}

TEST(Kernel, FewerFaultsNeverWorse) {
  // Monotonicity sanity: worst diameter with f' <= f faults is <= worst
  // with f faults (exhaustive over both budgets).
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto w1 = lex_worst_diameter(kr.table, 1);
  const auto w2 = lex_worst_diameter(kr.table, 2);
  EXPECT_LE(w1, w2);
}

TEST(Kernel, SurvivingGraphIsSymmetricForBidirectionalRouting) {
  const auto gg = petersen_graph();
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto r = surviving_graph(kr.table, {1, 8});
  EXPECT_TRUE(r.is_symmetric());
}

TEST(Kernel, ToleratesLowerTParameter) {
  // Building with t' < kappa-1 must still work and give a (2t', t')-routing.
  const auto gg = hypercube(4);  // kappa = 4
  const auto kr = build_kernel_routing(gg.graph, 1);
  EXPECT_LE(lex_worst_diameter(kr.table, 1), 4u);
}

TEST(Kernel, FaultsOnConcentratorItself) {
  // Knocking out concentrator members must stay within the bound.
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  std::vector<Node> faults(kr.separating_set.begin(),
                           kr.separating_set.begin() + 2);
  EXPECT_LE(surviving_diameter(kr.table, faults), 4u);
}

}  // namespace
}  // namespace ftr
