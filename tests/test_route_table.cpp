#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/contracts.hpp"
#include "gen/generators.hpp"

namespace ftr {
namespace {

TEST(RoutingTable, BidirectionalMirrorsAssignment) {
  RouteTableBuilder b(5, RoutingMode::kBidirectional);
  b.set_route({0, 1, 2});
  const RoutingTable t = std::move(b).build();
  ASSERT_TRUE(t.has_route(0, 2));
  ASSERT_TRUE(t.has_route(2, 0));
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*t.route(2, 0), (Path{2, 1, 0}));
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, UnidirectionalIsOneWay) {
  RouteTableBuilder b(5, RoutingMode::kUnidirectional);
  b.set_route({0, 1, 2});
  const RoutingTable t = std::move(b).build();
  EXPECT_TRUE(t.has_route(0, 2));
  EXPECT_FALSE(t.has_route(2, 0));
  EXPECT_EQ(t.num_routes(), 1u);
}

TEST(RoutingTable, UnidirectionalAllowsAsymmetricPaths) {
  RouteTableBuilder b(5, RoutingMode::kUnidirectional);
  b.set_route({0, 1, 2});
  b.set_route({2, 3, 0});  // different return path: fine when unidirectional
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*t.route(2, 0), (Path{2, 3, 0}));
}

TEST(RoutingTable, IdenticalReassignmentIsNoop) {
  RouteTableBuilder b(5, RoutingMode::kBidirectional);
  b.set_route({0, 1, 2});
  EXPECT_NO_THROW(b.set_route({0, 1, 2}));
  EXPECT_NO_THROW(b.set_route({2, 1, 0}));  // the mirror is the same route
  EXPECT_EQ(b.num_routes(), 2u);
  EXPECT_EQ(std::move(b).build().num_routes(), 2u);
}

TEST(RoutingTable, ConflictingReassignmentThrows) {
  RouteTableBuilder b(5, RoutingMode::kBidirectional);
  b.set_route({0, 1, 2});
  EXPECT_THROW(b.set_route({0, 3, 2}), ContractViolation);
}

TEST(RoutingTable, MiserlyByDefault) {
  // The default cap is one path per ordered pair.
  RouteTableBuilder b(4, RoutingMode::kUnidirectional);
  b.set_route({0, 1});
  b.set_route({0, 1, 2});
  b.set_route({0, 1, 2, 3});
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.num_routes(), 3u);  // pairs (0,1), (0,2), (0,3)
  EXPECT_EQ(t.num_pairs(), 3u);
  EXPECT_EQ(t.max_routes_per_pair(), 1u);
}

TEST(RoutingTable, TrySetRoute) {
  RouteTableBuilder b(4, RoutingMode::kUnidirectional);
  EXPECT_TRUE(b.try_set_route({0, 1, 2}));
  EXPECT_FALSE(b.try_set_route({0, 3, 2}));  // pair taken
  EXPECT_TRUE(b.try_set_route({2, 3, 0}));  // reverse was free
  EXPECT_TRUE(b.try_set_route({0, 1, 2}));  // already held
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, TrySetRouteBidirectionalChecksBoth) {
  RouteTableBuilder b(4, RoutingMode::kBidirectional);
  b.set_route({0, 1, 2});
  EXPECT_FALSE(b.try_set_route({2, 3, 0}));  // reverse already defined
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, RejectsDegeneratePaths) {
  RouteTableBuilder b(4, RoutingMode::kBidirectional);
  EXPECT_THROW(b.set_route({1}), ContractViolation);
  EXPECT_THROW(b.set_route({}), ContractViolation);
  EXPECT_THROW(b.set_route({1, 1}), ContractViolation);
  EXPECT_THROW(b.set_route({0, 9}), ContractViolation);
}

TEST(RoutingTable, RouteReturnsNullWhenMissing) {
  const RoutingTable t =
      RouteTableBuilder(4, RoutingMode::kBidirectional).build();
  EXPECT_EQ(t.route(0, 1), nullptr);
  EXPECT_FALSE(t.has_route(0, 1));
  EXPECT_TRUE(t.routes(0, 1).empty());
  EXPECT_THROW(t.route(0, 4), ContractViolation);
}

TEST(RoutingTable, BuilderHasRouteTracksAdds) {
  RouteTableBuilder b(4, RoutingMode::kUnidirectional);
  EXPECT_FALSE(b.has_route(0, 2));
  b.set_route({0, 1, 2});
  EXPECT_TRUE(b.has_route(0, 2));
  EXPECT_FALSE(b.has_route(2, 0));
  EXPECT_THROW((void)b.has_route(0, 4), ContractViolation);
}

TEST(RoutingTable, ForEachVisitsEveryOrderedPair) {
  RouteTableBuilder b(5, RoutingMode::kBidirectional);
  b.set_route({0, 1});
  b.set_route({2, 3, 4});
  const RoutingTable t = std::move(b).build();
  std::size_t visits = 0;
  t.for_each([&](Node x, Node y, const Path& p) {
    ++visits;
    EXPECT_EQ(p.front(), x);
    EXPECT_EQ(p.back(), y);
  });
  EXPECT_EQ(visits, 4u);
}

TEST(RoutingTable, ValidatePassesOnConsistentTable) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder b(6, RoutingMode::kBidirectional);
  install_edge_routes(b, gg.graph);
  EXPECT_NO_THROW(std::move(b).build().validate(gg.graph));
}

TEST(RoutingTable, ValidateCatchesNonPath) {
  GraphBuilder gb(4);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  const Graph g = gb.build();
  RouteTableBuilder b(4, RoutingMode::kUnidirectional);
  b.set_route({0, 3});  // not an edge of g — table can't know yet
  EXPECT_THROW(std::move(b).build().validate(g), ContractViolation);
}

TEST(RoutingTable, InstallEdgeRoutesCoversAllEdgesBothWays) {
  const auto gg = complete_graph(4);
  for (const RoutingMode mode :
       {RoutingMode::kBidirectional, RoutingMode::kUnidirectional}) {
    RouteTableBuilder b(4, mode);
    install_edge_routes(b, gg.graph);
    const RoutingTable t = std::move(b).build();
    for (Node u = 0; u < 4; ++u) {
      for (Node v = 0; v < 4; ++v) {
        if (u == v) continue;
        ASSERT_TRUE(t.has_route(u, v));
        EXPECT_EQ(*t.route(u, v), (Path{u, v}));
      }
    }
  }
}

TEST(RoutingTable, StatsReflectRoutes) {
  RouteTableBuilder b(6, RoutingMode::kUnidirectional);
  b.set_route({0, 1});
  b.set_route({0, 1, 2, 3});
  const auto s = std::move(b).build().stats();
  EXPECT_EQ(s.ordered_pairs, 2u);
  EXPECT_EQ(s.max_hops, 3u);
  EXPECT_DOUBLE_EQ(s.avg_hops, 2.0);
}

TEST(RoutingTable, StatsEmpty) {
  const auto s = RouteTableBuilder(3, RoutingMode::kBidirectional).build().stats();
  EXPECT_EQ(s.ordered_pairs, 0u);
  EXPECT_EQ(s.max_hops, 0u);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);
}

}  // namespace
}  // namespace ftr
