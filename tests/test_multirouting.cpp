// Experiments E11–E13 in miniature: the Section 6 multirouting schemes.
#include "routing/multirouting.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

// ---- Scheme (1): full multirouting, diameter 1. ----

TEST(FullMultirouting, DiameterOneUnderAnyTFaults) {
  const auto gg = petersen_graph();  // t = 2
  const auto table = build_full_multirouting(gg.graph, 2);
  EXPECT_EQ(lex_worst_diameter(table, 2), 1u);
}

TEST(FullMultirouting, HypercubeDiameterOne) {
  const auto gg = hypercube(3);  // t = 2
  const auto table = build_full_multirouting(gg.graph, 2);
  EXPECT_EQ(lex_worst_diameter(table, 2), 1u);
}

TEST(FullMultirouting, EveryPairHasTPlusOneRoutes) {
  const auto gg = petersen_graph();
  const auto table = build_full_multirouting(gg.graph, 2);
  for (Node x = 0; x < 10; ++x) {
    for (Node y = 0; y < 10; ++y) {
      if (x == y) continue;
      EXPECT_EQ(table.routes(x, y).size(), 3u) << x << "," << y;
    }
  }
  table.validate(gg.graph);
}

TEST(FullMultirouting, RequiresEnoughConnectivity) {
  const auto gg = cycle_graph(6);  // kappa = 2 < t+1 = 4
  EXPECT_THROW(build_full_multirouting(gg.graph, 3), ContractViolation);
}

// ---- Scheme (2): kernel + concentrator multiroutes, diameter <= 3. ----

TEST(KernelMultirouting, DiameterAtMostThree) {
  const auto gg = cube_connected_cycles(3);  // t = 2
  const auto mr = build_kernel_multirouting(gg.graph, 2);
  EXPECT_LE(lex_worst_diameter(mr.table, 2), 3u);
}

TEST(KernelMultirouting, CycleT1) {
  const auto gg = cycle_graph(12);
  const auto mr = build_kernel_multirouting(gg.graph, 1);
  EXPECT_LE(lex_worst_diameter(mr.table, 1), 3u);
}

TEST(KernelMultirouting, ConcentratorPairsFullyMultirouted) {
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto mr = build_kernel_multirouting(gg.graph, 3);
  for (std::size_t i = 0; i < mr.m.size(); ++i) {
    for (std::size_t j = i + 1; j < mr.m.size(); ++j) {
      EXPECT_GE(mr.table.routes(mr.m[i], mr.m[j]).size(), 4u);
    }
  }
}

// ---- Scheme (3): MULT construction, cap 2. ----

TEST(MultRouting, CapTwoRespected) {
  const auto gg = cube_connected_cycles(3);
  const auto mr = build_mult_routing(gg.graph, 2);
  mr.table.validate(gg.graph);  // includes the cap check
  EXPECT_EQ(mr.table.max_routes_per_pair(), 2u);
}

TEST(MultRouting, SmallConstantDiameter) {
  // The paper sketches this as "similar to the bipolar routing" — we
  // measure and expect the bipolar-like bound of <= 4.
  const auto gg = cube_connected_cycles(3);
  const auto mr = build_mult_routing(gg.graph, 2);
  EXPECT_LE(lex_worst_diameter(mr.table, 2), 4u);
}

TEST(MultRouting, CycleT1Exhaustive) {
  const auto gg = cycle_graph(12);
  const auto mr = build_mult_routing(gg.graph, 1);
  EXPECT_LE(lex_worst_diameter(mr.table, 1), 4u);
}

TEST(MultRouting, TreeRoutingsSurviveCapPressure) {
  // Every outside node keeps its full-width tree routing into M.
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto mr = build_mult_routing(gg.graph, 3);
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (std::find(mr.m.begin(), mr.m.end(), x) != mr.m.end()) continue;
    std::size_t covered = 0;
    for (Node m : mr.m) covered += !mr.table.routes(x, m).empty();
    EXPECT_GE(covered, 4u) << "node " << x;
  }
}

TEST(Multirouting, SchemesTradeRoutesForDiameter) {
  // The Section 6 story in one assertion chain: more parallel routes, lower
  // surviving diameter.
  const auto gg = cube_connected_cycles(3);
  const auto full = build_full_multirouting(gg.graph, 2);
  const auto kern = build_kernel_multirouting(gg.graph, 2);
  const auto mult = build_mult_routing(gg.graph, 2);
  const auto d_full = lex_worst_diameter(full, 2);
  const auto d_kern = lex_worst_diameter(kern.table, 2);
  const auto d_mult = lex_worst_diameter(mult.table, 2);
  EXPECT_LE(d_full, d_kern);
  EXPECT_LE(d_kern, d_mult);
  EXPECT_GT(full.total_routes(), kern.table.total_routes());
}

}  // namespace
}  // namespace ftr
