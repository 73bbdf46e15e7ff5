#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "gen/generators.hpp"

namespace ftr {
namespace {

TEST(RoutingTable, BidirectionalMirrorsAssignment) {
  RoutingTable t(5, RoutingMode::kBidirectional);
  t.set_route({0, 1, 2});
  ASSERT_TRUE(t.has_route(0, 2));
  ASSERT_TRUE(t.has_route(2, 0));
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*t.route(2, 0), (Path{2, 1, 0}));
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, UnidirectionalIsOneWay) {
  RoutingTable t(5, RoutingMode::kUnidirectional);
  t.set_route({0, 1, 2});
  EXPECT_TRUE(t.has_route(0, 2));
  EXPECT_FALSE(t.has_route(2, 0));
  EXPECT_EQ(t.num_routes(), 1u);
}

TEST(RoutingTable, UnidirectionalAllowsAsymmetricPaths) {
  RoutingTable t(5, RoutingMode::kUnidirectional);
  t.set_route({0, 1, 2});
  t.set_route({2, 3, 0});  // different return path: fine when unidirectional
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*t.route(2, 0), (Path{2, 3, 0}));
}

TEST(RoutingTable, IdenticalReassignmentIsNoop) {
  RoutingTable t(5, RoutingMode::kBidirectional);
  t.set_route({0, 1, 2});
  EXPECT_NO_THROW(t.set_route({0, 1, 2}));
  EXPECT_NO_THROW(t.set_route({2, 1, 0}));  // the mirror is the same route
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, ConflictingReassignmentThrows) {
  RoutingTable t(5, RoutingMode::kBidirectional);
  t.set_route({0, 1, 2});
  EXPECT_THROW(t.set_route({0, 3, 2}), ContractViolation);
}

TEST(RoutingTable, MiserlyByDefault) {
  // The default cap is one path per ordered pair.
  RoutingTable t(4, RoutingMode::kUnidirectional);
  t.set_route({0, 1});
  t.set_route({0, 1, 2});
  t.set_route({0, 1, 2, 3});
  EXPECT_EQ(t.num_routes(), 3u);  // pairs (0,1), (0,2), (0,3)
  EXPECT_EQ(t.num_pairs(), 3u);
  EXPECT_EQ(t.max_routes_per_pair(), 1u);
}

TEST(RoutingTable, TrySetRoute) {
  RoutingTable t(4, RoutingMode::kUnidirectional);
  EXPECT_TRUE(t.try_set_route({0, 1, 2}));
  EXPECT_FALSE(t.try_set_route({0, 3, 2}));  // pair taken
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_TRUE(t.try_set_route({2, 3, 0}));  // reverse was free
  EXPECT_TRUE(t.try_set_route({0, 1, 2}));  // already held
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, TrySetRouteBidirectionalChecksBoth) {
  RoutingTable t(4, RoutingMode::kBidirectional);
  t.set_route({0, 1, 2});
  EXPECT_FALSE(t.try_set_route({2, 3, 0}));  // reverse already defined
  EXPECT_EQ(*t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(RoutingTable, RejectsDegeneratePaths) {
  RoutingTable t(4, RoutingMode::kBidirectional);
  EXPECT_THROW(t.set_route({1}), ContractViolation);
  EXPECT_THROW(t.set_route({}), ContractViolation);
  EXPECT_THROW(t.set_route({1, 1}), ContractViolation);
  EXPECT_THROW(t.set_route({0, 9}), ContractViolation);
}

TEST(RoutingTable, RouteReturnsNullWhenMissing) {
  RoutingTable t(4, RoutingMode::kBidirectional);
  EXPECT_EQ(t.route(0, 1), nullptr);
  EXPECT_FALSE(t.has_route(0, 1));
}

TEST(RoutingTable, ForEachVisitsEveryOrderedPair) {
  RoutingTable t(5, RoutingMode::kBidirectional);
  t.set_route({0, 1});
  t.set_route({2, 3, 4});
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
  RoutingTable t(6, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  EXPECT_NO_THROW(t.validate(gg.graph));
}

TEST(RoutingTable, ValidateCatchesNonPath) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  RoutingTable t(4, RoutingMode::kUnidirectional);
  t.set_route({0, 3});  // not an edge of g — table can't know yet
  EXPECT_THROW(t.validate(g), ContractViolation);
}

TEST(RoutingTable, InstallEdgeRoutesCoversAllEdgesBothWays) {
  const auto gg = complete_graph(4);
  for (const RoutingMode mode :
       {RoutingMode::kBidirectional, RoutingMode::kUnidirectional}) {
    RoutingTable t(4, mode);
    install_edge_routes(t, gg.graph);
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
  RoutingTable t(6, RoutingMode::kUnidirectional);
  t.set_route({0, 1});
  t.set_route({0, 1, 2, 3});
  const auto s = t.stats();
  EXPECT_EQ(s.ordered_pairs, 2u);
  EXPECT_EQ(s.max_hops, 3u);
  EXPECT_DOUBLE_EQ(s.avg_hops, 2.0);
}

TEST(RoutingTable, StatsEmpty) {
  RoutingTable t(3, RoutingMode::kBidirectional);
  const auto s = t.stats();
  EXPECT_EQ(s.ordered_pairs, 0u);
  EXPECT_EQ(s.max_hops, 0u);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);
}

}  // namespace
}  // namespace ftr
