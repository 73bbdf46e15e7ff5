// SurvivingRouteGraphEngine must be observationally identical to the
// one-shot path in fault/surviving.cpp — same surviving graphs, same
// diameters — while reusing scratch state across arbitrary interleavings of
// fault sets. These tests are differential: every engine answer is checked
// against the straightforward implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"
#include "sim/recovery.hpp"

namespace ftr {
namespace {

void expect_same_digraph(const Digraph& a, const Digraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_present(), b.num_present());
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  for (Node u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.present(u), b.present(u)) << "node " << u;
    const auto sa = a.successors(u);
    const auto sb = b.successors(u);
    ASSERT_EQ(sa.size(), sb.size()) << "out-degree of " << u;
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(SrgEngine, MatchesOneShotOnKernelRouting) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  EXPECT_EQ(engine.num_nodes(), kr.table.num_nodes());
  EXPECT_EQ(engine.num_routes(), kr.table.num_routes());

  Rng rng(31);
  for (std::size_t f : {0u, 1u, 3u, 6u, 10u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 8, rng);
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(kr.table, faults))
          << "f=" << f;
      expect_same_digraph(engine.surviving_graph(faults),
                          surviving_graph(kr.table, faults));
    }
  }
}

TEST(SrgEngine, MatchesOneShotOnMultirouting) {
  const auto gg = cube_connected_cycles(3);
  Rng rng(7);
  const MultiRouteTable table = build_full_multirouting(gg.graph, 2);
  SurvivingRouteGraphEngine engine(table);
  EXPECT_EQ(engine.num_pairs(), table.num_routed_pairs());
  EXPECT_EQ(engine.num_routes(), table.total_routes());

  for (std::size_t f : {0u, 2u, 4u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(table, faults))
          << "f=" << f;
      expect_same_digraph(engine.surviving_graph(faults),
                          surviving_graph(table, faults));
    }
  }
}

TEST(SrgEngine, ScratchReuseIsOrderIndependent) {
  // Alternate between heavy and light fault sets; stale stamps from one
  // evaluation must never leak into the next.
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(99);
  const auto heavy = random_fault_sets(16, 6, 10, rng);
  const auto light = random_fault_sets(16, 1, 10, rng);
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    EXPECT_EQ(engine.surviving_diameter(heavy[i]),
              surviving_diameter(kr.table, heavy[i]));
    EXPECT_EQ(engine.surviving_diameter(light[i]),
              surviving_diameter(kr.table, light[i]));
    EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{}),
              surviving_diameter(kr.table, {}));
  }
}

TEST(SrgEngine, DuplicateAndOutOfRangeFaults) {
  const auto gg = cycle_graph(8);
  RoutingTable t(8, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  SurvivingRouteGraphEngine engine(t);
  const std::vector<Node> dup{2, 2, 5};
  EXPECT_EQ(engine.surviving_diameter(dup), surviving_diameter(t, dup));
  EXPECT_THROW(engine.surviving_diameter(std::vector<Node>{9}),
               ContractViolation);
}

TEST(SrgEngine, EvaluateReportsSurvivorsAndArcs) {
  const auto gg = cycle_graph(6);
  RoutingTable t(6, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  SurvivingRouteGraphEngine engine(t);

  const auto clean = engine.evaluate(std::vector<Node>{});
  EXPECT_EQ(clean.survivors, 6u);
  EXPECT_EQ(clean.arcs, 12u);  // 6 edges, both directions
  EXPECT_EQ(clean.diameter, 3u);

  const auto struck = engine.evaluate(std::vector<Node>{0});
  EXPECT_EQ(struck.survivors, 5u);
  EXPECT_EQ(struck.arcs, 8u);          // arcs touching node 0 are gone
  EXPECT_EQ(struck.diameter, 4u);      // cycle minus a node = 5-node path
}

TEST(SrgEngine, FewSurvivorsDiameterZero) {
  RoutingTable t(3, RoutingMode::kBidirectional);
  t.set_route({0, 1});
  t.set_route({1, 2});
  t.set_route({0, 1, 2});
  SurvivingRouteGraphEngine engine(t);
  EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{0, 1}), 0u);
  EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{0, 1, 2}), 0u);
}

TEST(SrgEngine, ComponentwiseMatchesRecoveryMetric) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(515);
  for (std::size_t f : {3u, 5u, 7u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      const auto batched =
          componentwise_surviving_diameter(gg.graph, engine, faults);
      const auto oneshot =
          componentwise_surviving_diameter(gg.graph, kr.table, faults);
      EXPECT_EQ(batched.worst, oneshot.worst);
      EXPECT_EQ(batched.num_components, oneshot.num_components);
      EXPECT_EQ(batched.survivors, oneshot.survivors);
    }
  }
}

TEST(SrgEngine, SharedIndexServesManyScratches) {
  // The tentpole contract: one immutable SrgIndex, N independent scratches,
  // all observationally identical to the one-shot path.
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch a(index), b(index);
  Rng rng(17);
  const auto sets = random_fault_sets(25, 3, 12, rng);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    // Interleave the scratches; epochs are per-scratch, so neither may
    // perturb the other.
    SrgScratch& scratch = (i % 2 == 0) ? a : b;
    EXPECT_EQ(scratch.surviving_diameter(sets[i]),
              surviving_diameter(kr.table, sets[i]))
        << "set " << i;
  }
}

TEST(SrgEngine, EpochWraparound) {
  // Force both epoch counters across the 2^32 wrap and check the scratch
  // keeps matching the one-shot path on every side of it. The torus kernel
  // evaluation runs ~25 BFS epochs per fault set, so a handful of sets
  // crosses the bfs wrap mid-evaluation too. Both stamped kernels are
  // pinned explicitly: scalar exercises the bfs_epoch_ wrap, bitset the
  // fault/route/pair stamp wrap (its BFS is stamp-free).
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(3);
  const auto sets = random_fault_sets(16, 3, 10, rng);

  for (const SrgKernel kernel : {SrgKernel::kScalar, SrgKernel::kBitset}) {
    engine.scratch().set_epochs_for_testing(~std::uint32_t{0} - 3);
    engine.scratch().set_kernel(kernel);
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(kr.table, faults))
          << srg_kernel_name(kernel);
    }

    // An explicit reset must be behavior-preserving as well.
    engine.scratch().reset();
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(kr.table, faults))
          << srg_kernel_name(kernel);
    }
  }
}

TEST(SrgEngine, EpochWraparoundOnSurvivingGraph) {
  const auto gg = cycle_graph(8);
  RoutingTable t(8, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  SurvivingRouteGraphEngine engine(t);
  engine.scratch().set_epochs_for_testing(~std::uint32_t{0} - 1);
  const std::vector<Node> faults{2, 5};
  for (int round = 0; round < 4; ++round) {  // crosses the wrap mid-loop
    expect_same_digraph(engine.surviving_graph(faults),
                        surviving_graph(t, faults));
  }
}

TEST(SrgEngine, CircularRoutingSweepAgainstOneShot) {
  const auto gg = torus_graph(5, 5);
  Rng rng(42);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  const auto cr = build_circular_routing(gg.graph, 3, m);
  SurvivingRouteGraphEngine engine(cr.table);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 20, rng);
  for (const auto& faults : sets) {
    EXPECT_EQ(engine.surviving_diameter(faults),
              surviving_diameter(cr.table, faults));
  }
}

}  // namespace
}  // namespace ftr
