// A RoutingTable with a per-pair cap above 1: Section 6's multiroutings.
// Cap, duplicate, no-cap, try-add, mirroring, unidirectional and validate
// behavior; the cap-1 basics live in test_route_table.cpp.
#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/contracts.hpp"
#include "gen/generators.hpp"

namespace ftr {
namespace {

constexpr RoutingMode kBi = RoutingMode::kBidirectional;
constexpr RoutingMode kUni = RoutingMode::kUnidirectional;

TEST(MultiRoute, AddAndQuery) {
  RouteTableBuilder b(5, kBi, 3);
  b.set_route({0, 1, 2});
  b.set_route({0, 3, 2});
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.routes(0, 2).size(), 2u);
  EXPECT_EQ(t.routes(2, 0).size(), 2u);  // bidirectional mirror
  EXPECT_EQ(t.routes(0, 1).size(), 0u);
  EXPECT_EQ(t.max_routes_per_pair(), 3u);
}

TEST(MultiRoute, RouteIsTheFirstInserted) {
  RouteTableBuilder b(5, kBi, 3);
  b.set_route({0, 1, 2});
  b.set_route({0, 3, 2});
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(t.route(2, 0), (Path{2, 1, 0}));
  const auto routes = t.routes(0, 2);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0], (Path{0, 1, 2}));
  EXPECT_EQ(routes[1], (Path{0, 3, 2}));
}

TEST(MultiRoute, DuplicateIgnored) {
  RouteTableBuilder b(5, kBi, 3);
  b.set_route({0, 1, 2});
  b.set_route({0, 1, 2});
  b.set_route({2, 1, 0});  // the mirror is the same route
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.routes(0, 2).size(), 1u);
  EXPECT_EQ(t.num_routes(), 2u);
}

TEST(MultiRoute, CapEnforced) {
  RouteTableBuilder b(6, kBi, 2);
  b.set_route({0, 1, 5});
  b.set_route({0, 2, 5});
  EXPECT_THROW(b.set_route({0, 3, 5}), ContractViolation);
}

TEST(MultiRoute, UnlimitedWhenCapZero) {
  RouteTableBuilder b(8, kBi, 0);
  for (Node mid = 1; mid < 7; ++mid) {
    b.set_route({0, mid, 7});
  }
  EXPECT_EQ(std::move(b).build().routes(0, 7).size(), 6u);
}

TEST(MultiRoute, TrySetRouteDropsAtCap) {
  RouteTableBuilder b(6, kBi, 2);
  EXPECT_TRUE(b.try_set_route({0, 1, 5}));
  EXPECT_TRUE(b.try_set_route({0, 2, 5}));
  EXPECT_FALSE(b.try_set_route({0, 3, 5}));
  EXPECT_EQ(std::move(b).build().routes(0, 5).size(), 2u);
}

TEST(MultiRoute, TrySetRouteDuplicateReportsSuccess) {
  RouteTableBuilder b(6, kBi, 2);
  EXPECT_TRUE(b.try_set_route({0, 1, 5}));
  EXPECT_TRUE(b.try_set_route({0, 1, 5}));
  EXPECT_EQ(std::move(b).build().routes(0, 5).size(), 1u);
}

TEST(MultiRoute, UnidirectionalDoesNotMirror) {
  RouteTableBuilder b(5, kUni, 2);
  b.set_route({0, 1, 2});
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.routes(0, 2).size(), 1u);
  EXPECT_EQ(t.routes(2, 0).size(), 0u);
}

TEST(MultiRoute, TotalsAndPairCounts) {
  RouteTableBuilder b(5, kBi, 3);
  b.set_route({0, 1, 2});
  b.set_route({0, 3, 2});
  b.set_route({1, 2});
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.num_pairs(), 4u);  // (0,2),(2,0),(1,2),(2,1)
  EXPECT_EQ(t.num_routes(), 6u);
}

TEST(MultiRoute, IteratesPairMajor) {
  // Routes interleave across pairs in insertion order; the built table
  // groups each pair's routes, pairs in order of their first route.
  RouteTableBuilder b(6, kUni, 0);
  b.set_route({0, 1, 5});
  b.set_route({1, 2});
  b.set_route({0, 2, 5});
  b.set_route({1, 3, 2});
  b.set_route({0, 3, 5});
  const RoutingTable t = std::move(b).build();
  std::vector<Path> seen;
  t.for_each([&](Node x, Node y, const Path& p) {
    EXPECT_EQ(p.front(), x);
    EXPECT_EQ(p.back(), y);
    seen.push_back(p);
  });
  const std::vector<Path> want = {
      {0, 1, 5}, {0, 2, 5}, {0, 3, 5}, {1, 2}, {1, 3, 2}};
  EXPECT_EQ(seen, want);
}

TEST(MultiRoute, ValidateChecksPaths) {
  const auto gg = cycle_graph(5);
  RouteTableBuilder b(5, kBi, 2);
  b.set_route({0, 1, 2});
  EXPECT_NO_THROW(RouteTableBuilder(b).build().validate(gg.graph));
  b.set_route({0, 2});  // not an edge in C5
  EXPECT_THROW(std::move(b).build().validate(gg.graph), ContractViolation);
}

TEST(MultiRoute, BidirectionalMirrorsEveryRoute) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder b(6, kBi, 2);
  b.set_route({0, 1, 2, 3});
  b.set_route({3, 4, 5, 0});  // added from the other end
  const RoutingTable t = std::move(b).build();
  const auto fwd = t.routes(0, 3);
  const auto back = t.routes(3, 0);
  ASSERT_EQ(fwd.size(), 2u);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back[i].to_path(), Path(fwd[i].rbegin(), fwd[i].rend()));
  }
  EXPECT_NO_THROW(t.validate(gg.graph));
}

TEST(MultiRoute, MirrorStaysInSyncUnderTryAdd) {
  RouteTableBuilder b(6, kBi, 2);
  EXPECT_TRUE(b.try_set_route({0, 1, 5}));
  // Make the reverse direction full via another insertion order.
  EXPECT_TRUE(b.try_set_route({5, 2, 0}));
  // Both buckets now hold 2; a third distinct path must be rejected.
  EXPECT_FALSE(b.try_set_route({0, 3, 5}));
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.routes(0, 5).size(), 2u);
  EXPECT_EQ(t.routes(5, 0).size(), 2u);
}

TEST(MultiRoute, RejectsDegenerate) {
  RouteTableBuilder b(4, kBi, 2);
  EXPECT_THROW(b.set_route({2}), ContractViolation);
  EXPECT_THROW(b.set_route({0, 7}), ContractViolation);
  EXPECT_THROW(b.try_set_route({2}), ContractViolation);
}

}  // namespace
}  // namespace ftr
