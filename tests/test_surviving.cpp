#include "fault/surviving.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"

namespace ftr {
namespace {

TEST(Surviving, FaultyNodesAbsent) {
  RouteTableBuilder builder(5, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({1, 2});
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph(t, {1});
  EXPECT_FALSE(r.present(1));
  EXPECT_EQ(r.num_present(), 4u);
  EXPECT_EQ(r.num_arcs(), 0u);  // both routes touched node 1
}

TEST(Surviving, RouteThroughFaultDropped) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});  // via node 1
  builder.set_route({0, 3});
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph(t, {1});
  EXPECT_FALSE(r.has_arc(0, 2));
  EXPECT_TRUE(r.has_arc(0, 3));
  EXPECT_TRUE(r.has_arc(3, 0));
}

TEST(Surviving, EndpointFaultDropsRoute) {
  RouteTableBuilder builder(4, RoutingMode::kUnidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph(t, {0});
  EXPECT_EQ(r.num_arcs(), 0u);
}

TEST(Surviving, NoFaultsKeepsEverything) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph(t, {});
  EXPECT_EQ(r.num_arcs(), 2 * gg.graph.num_edges());
  EXPECT_EQ(diameter(r), diameter(gg.graph));
}

TEST(Surviving, UnidirectionalAsymmetry) {
  RouteTableBuilder builder(4, RoutingMode::kUnidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({2, 3, 0});
  const RoutingTable t = std::move(builder).build();
  const auto r = surviving_graph(t, {3});
  EXPECT_TRUE(r.has_arc(0, 2));   // forward path avoids 3
  EXPECT_FALSE(r.has_arc(2, 0));  // reverse path used 3
}

TEST(Surviving, OutOfRangeFaultRejected) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  EXPECT_THROW(surviving_graph(t, {9}), ContractViolation);
}

TEST(Surviving, MultiRouteAnySurvivorKeepsArc) {
  RouteTableBuilder builder(5, RoutingMode::kBidirectional, 2);
  builder.set_route({0, 1, 4});
  builder.set_route({0, 2, 4});
  const RoutingTable t = std::move(builder).build();
  EXPECT_TRUE(surviving_graph(t, {1}).has_arc(0, 4));
  EXPECT_TRUE(surviving_graph(t, {2}).has_arc(0, 4));
  EXPECT_FALSE(surviving_graph(t, {1, 2}).has_arc(0, 4));
}

TEST(Surviving, DiameterUnreachableWhenRoutingDisconnects) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({2, 3});
  const RoutingTable t = std::move(builder).build();
  EXPECT_EQ(surviving_diameter(t, {}), kUnreachable);
}

TEST(Surviving, DiameterZeroWhenOneSurvivor) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  EXPECT_EQ(surviving_diameter(t, {0, 1}), 0u);
}

TEST(Surviving, MatchesDefinitionOnKernelExample) {
  // Cross-check: an arc exists iff the route exists and misses F.
  const auto gg = petersen_graph();
  const auto kr = build_kernel_routing(gg.graph, 2);
  const std::vector<Node> faults = {2, 7};
  const auto r = surviving_graph(kr.table, faults);
  kr.table.for_each([&](Node x, Node y, const Path& p) {
    const bool survives = [&] {
      for (Node v : p) {
        if (v == 2 || v == 7) return false;
      }
      return true;
    }();
    EXPECT_EQ(r.present(x) && r.present(y) && r.has_arc(x, y), survives)
        << x << "->" << y;
  });
}

}  // namespace
}  // namespace ftr
