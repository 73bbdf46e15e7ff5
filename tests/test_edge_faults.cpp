// The Section 1 edge-fault reduction: charging each faulty edge to one
// endpoint "can only weaken our results" — i.e. the node-reduced surviving
// graph is a subgraph of the true edge-fault surviving graph, so every
// (d, f) bound transfers.
#include "fault/edge_faults.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"

namespace ftr {
namespace {

TEST(EdgeFaults, CanonicalizesEndpoints) {
  const auto ef = make_edge_fault(7, 3);
  EXPECT_EQ(ef.u, 3u);
  EXPECT_EQ(ef.v, 7u);
  EXPECT_THROW(make_edge_fault(2, 2), ContractViolation);
}

TEST(EdgeFaults, RouteUsingFaultyEdgeDies) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({0, 3});
  const RoutingTable t = std::move(builder).build();
  const auto r =
      surviving_graph_with_edge_faults(t, {}, {make_edge_fault(1, 2)});
  EXPECT_FALSE(r.has_arc(0, 2));  // route traverses the dead edge
  EXPECT_TRUE(r.has_arc(0, 3));   // unaffected route survives
}

TEST(EdgeFaults, NodesStayPresentUnderEdgeFaults) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  const auto r =
      surviving_graph_with_edge_faults(t, {}, {make_edge_fault(0, 1)});
  EXPECT_EQ(r.num_present(), 3u);  // edge faults kill routes, not nodes
  EXPECT_EQ(r.num_arcs(), 0u);
}

TEST(EdgeFaults, MixedFaults) {
  RouteTableBuilder builder(5, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});  // dies to the edge fault
  builder.set_route({0, 4});     // dies to the node fault
  builder.set_route({0, 3});     // survives
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph_with_edge_faults(t, {4},
                                                  {make_edge_fault(0, 1)});
  EXPECT_FALSE(r.present(4));
  EXPECT_FALSE(r.has_arc(0, 2));
  EXPECT_TRUE(r.has_arc(0, 3));
}

TEST(EdgeFaults, ReductionChargesOneEndpoint) {
  const auto reduced = reduce_edge_faults_to_nodes(
      {7}, {make_edge_fault(1, 2), make_edge_fault(5, 3)});
  EXPECT_EQ(reduced, (std::vector<Node>{1, 3, 7}));
}

TEST(EdgeFaults, ReductionDeduplicates) {
  const auto reduced = reduce_edge_faults_to_nodes(
      {1}, {make_edge_fault(1, 2), make_edge_fault(1, 9)});
  EXPECT_EQ(reduced, (std::vector<Node>{1}));
}

TEST(EdgeFaults, ReductionIsConservativeOnKernelRouting) {
  // The paper's claim, verified literally: every arc of the node-reduced
  // surviving graph also survives in the true edge-fault model, for many
  // random mixed fault sets.
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  Rng rng(17);
  const auto edges = gg.graph.edges();
  for (int trial = 0; trial < 40; ++trial) {
    // One node fault + one edge fault, within the t = 2 budget after
    // reduction.
    const Node nf = static_cast<Node>(rng.below(gg.graph.num_nodes()));
    const auto [eu, ev] = edges[rng.below(edges.size())];
    const std::vector<EdgeFault> efs = {make_edge_fault(eu, ev)};
    const auto reduced = reduce_edge_faults_to_nodes({nf}, efs);
    const auto true_surviving =
        surviving_graph_with_edge_faults(kr.table, {nf}, efs);
    const auto reduced_surviving = surviving_graph(kr.table, reduced);
    for (Node x : reduced_surviving.present_nodes()) {
      ASSERT_TRUE(true_surviving.present(x));
      for (Node y : reduced_surviving.successors(x)) {
        EXPECT_TRUE(true_surviving.has_arc(x, y))
            << "reduction produced arc " << x << "->" << y
            << " the true model lacks";
      }
    }
  }
}

TEST(EdgeFaults, BoundTransfersThroughReduction) {
  // The precise sense in which the reduction "can only weaken" results:
  // for every pair of nodes that survives the *reduction*, the true-model
  // distance is at most the reduced-model distance, and the reduced model
  // obeys Theorem 3's bound. (Nodes charged for an edge fault give up their
  // own guarantee — the price of the substitution.)
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(23);
  const auto edges = gg.graph.edges();
  for (int trial = 0; trial < 25; ++trial) {
    const auto [au, av] = edges[rng.below(edges.size())];
    const auto [bu, bv] = edges[rng.below(edges.size())];
    const std::vector<EdgeFault> efs = {make_edge_fault(au, av),
                                        make_edge_fault(bu, bv)};
    const auto reduced = reduce_edge_faults_to_nodes({}, efs);
    ASSERT_LE(reduced.size(), 3u);
    const auto true_model =
        surviving_graph_with_edge_faults(kr.table, {}, efs);
    const auto reduced_model = surviving_graph(kr.table, reduced);
    EXPECT_LE(diameter(reduced_model), 6u);  // Theorem 3 bound (2t)
    for (Node x : reduced_model.present_nodes()) {
      const auto d_true = bfs_distances(true_model, x);
      const auto d_red = bfs_distances(reduced_model, x);
      for (Node y : reduced_model.present_nodes()) {
        if (d_red[y] == kUnreachable) continue;
        EXPECT_LE(d_true[y], d_red[y]) << x << "->" << y;
      }
    }
  }
}

TEST(EdgeFaults, NoFaultsMatchesPlainSurvivingGraph) {
  const auto gg = petersen_graph();
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto a = surviving_graph(kr.table, {});
  const auto b = surviving_graph_with_edge_faults(kr.table, {}, {});
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(diameter(a), diameter(b));
}

}  // namespace
}  // namespace ftr
