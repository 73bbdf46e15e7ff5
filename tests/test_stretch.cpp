#include "analysis/stretch.hpp"

#include <gtest/gtest.h>

#include "analysis/neighborhood.hpp"
#include "gen/generators.hpp"
#include "routing/circular.hpp"
#include "routing/hypercube_routing.hpp"
#include "routing/kernel.hpp"

namespace ftr {
namespace {

TEST(Stretch, EdgeRoutingHasStretchOne) {
  const auto gg = cycle_graph(8);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const auto s = measure_stretch(gg.graph, t);
  EXPECT_EQ(s.routes, 16u);
  EXPECT_DOUBLE_EQ(s.avg_stretch, 1.0);
  EXPECT_DOUBLE_EQ(s.max_stretch, 1.0);
  EXPECT_EQ(s.shortest_routes, s.routes);
  EXPECT_EQ(s.max_detour, 0u);
}

TEST(Stretch, BitFixingIsShortest) {
  const auto gg = hypercube(4);
  const auto t = build_bitfixing_bidirectional(gg.graph, 4);
  const auto s = measure_stretch(gg.graph, t);
  EXPECT_DOUBLE_EQ(s.max_stretch, 1.0);
  EXPECT_EQ(s.shortest_routes, s.routes);
}

TEST(Stretch, DetouredRouteMeasured) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  builder.set_route({0, 5, 4, 3});  // dist(0,3) = 3, this way is also 3
  builder.set_route({0, 1, 2});     // shortest
  const RoutingTable t = std::move(builder).build();
  const auto s = measure_stretch(gg.graph, t);
  EXPECT_EQ(s.routes, 4u);
  EXPECT_DOUBLE_EQ(s.max_stretch, 1.0);  // both directions are shortest on C6
  RouteTableBuilder builder2(6, RoutingMode::kBidirectional);
  builder2.set_route({0, 5, 4, 3, 2});  // dist(0,2) = 2, route hops = 4
  const RoutingTable t2 = std::move(builder2).build();
  const auto s2 = measure_stretch(gg.graph, t2);
  EXPECT_DOUBLE_EQ(s2.max_stretch, 2.0);
  EXPECT_EQ(s2.max_detour, 2u);
  EXPECT_EQ(s2.shortest_routes, 0u);
}

TEST(Stretch, KernelRoutesDetourThroughConcentrator) {
  // Tree routings on a torus are not all shortest paths; stretch must be
  // finite, >= 1, and bounded by the route-length cap.
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const auto s = measure_stretch(gg.graph, kr.table);
  EXPECT_GE(s.avg_stretch, 1.0);
  EXPECT_GE(s.max_stretch, 1.0);
  EXPECT_GT(s.routes, 0u);
  EXPECT_GE(static_cast<double>(s.max_route_hops),
            s.max_stretch);  // hops >= stretch since dist >= 1
}

TEST(Stretch, CircularRoutesReasonable) {
  const auto gg = torus_graph(5, 5);
  Rng rng(3);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  const auto cr = build_circular_routing(gg.graph, 3, m);
  const auto s = measure_stretch(gg.graph, cr.table);
  EXPECT_GE(s.avg_stretch, 1.0);
  EXPECT_LT(s.avg_stretch, 3.0);  // shells are local; detours stay modest
}

TEST(Stretch, EmptyTable) {
  const auto gg = cycle_graph(5);
  const RoutingTable t =
      RouteTableBuilder(5, RoutingMode::kBidirectional).build();
  const auto s = measure_stretch(gg.graph, t);
  EXPECT_EQ(s.routes, 0u);
  EXPECT_DOUBLE_EQ(s.avg_stretch, 0.0);
}

}  // namespace
}  // namespace ftr
