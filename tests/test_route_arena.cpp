// Arena-specific coverage for the flat RoutingTable storage (one route per
// pair and capped multiroutes): view stability, conflict discipline at
// scale, iteration order, and serialization round-trips on non-trivial tables — plus the
// FlatArray sharing and detach-on-write rules that storage rests on. The
// behavioral basics (mirroring, no-op reassignment, stats) live in
// test_route_table.cpp; here we stress the arena against a reference
// implementation and through realistic construction workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/flat_array.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/route_table.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

using U32Array = FlatArray<std::uint32_t>;

TEST(FlatArray, CopySharesItsBytes) {
  const U32Array a(std::vector<std::uint32_t>{1, 2, 3});
  const U32Array b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b, a);
  U32Array c;
  c = a;
  EXPECT_EQ(c.data(), a.data());
}

TEST(FlatArray, WriteDetachesOnlyTheWrittenCopy) {
  U32Array a(std::vector<std::uint32_t>{1, 2, 3});
  const std::uint32_t* shared = a.data();
  U32Array b = a;
  b.set(0, 9);  // through the copy
  EXPECT_NE(b.data(), shared);
  EXPECT_EQ(a.data(), shared);
  EXPECT_EQ(a, U32Array(std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(b, U32Array(std::vector<std::uint32_t>{9, 2, 3}));

  const U32Array c = a;
  a.push_back(4);  // through the original
  EXPECT_NE(a.data(), shared);
  EXPECT_EQ(c.data(), shared);
  EXPECT_EQ(c, U32Array(std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(a, U32Array(std::vector<std::uint32_t>{1, 2, 3, 4}));

  // An array alone with its bytes writes them in place.
  const std::uint32_t* own = b.data();
  b.set(1, 8);
  EXPECT_EQ(b.data(), own);
  EXPECT_EQ(b, U32Array(std::vector<std::uint32_t>{9, 8, 3}));
}

TEST(FlatArray, AliasedCopyKeepsTheMappingAlive) {
  // The owner handle stands in for a mapped snapshot file.
  auto region = std::make_shared<const std::vector<std::uint32_t>>(
      std::vector<std::uint32_t>{5, 6, 7});
  const std::weak_ptr<const std::vector<std::uint32_t>> watch = region;
  const std::uint32_t* bytes = region->data();
  const std::size_t size = region->size();
  U32Array copy;
  {
    const U32Array original = U32Array::aliased(bytes, size, std::move(region));
    copy = original;
  }
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(copy.aliased_view());
  EXPECT_EQ(copy.data(), bytes);
  EXPECT_EQ(copy, U32Array(std::vector<std::uint32_t>{5, 6, 7}));
  // Writing detaches the copy, which was the mapping's last holder.
  copy.set(0, 1);
  EXPECT_FALSE(copy.aliased_view());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(copy, U32Array(std::vector<std::uint32_t>{1, 6, 7}));
}

TEST(FlatArray, MovedFromArrayIsEmpty) {
  U32Array a(std::vector<std::uint32_t>{1, 2});
  const std::uint32_t* bytes = a.data();
  U32Array b = std::move(a);
  EXPECT_EQ(b.data(), bytes);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.memory_bytes(), 0u);
  U32Array c;
  c = std::move(b);
  EXPECT_EQ(c.data(), bytes);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), nullptr);
  // A moved-from array is usable again.
  b.push_back(3);
  EXPECT_EQ(b, U32Array(std::vector<std::uint32_t>{3}));
}

TEST(RouteArena, ViewsStayValidAcrossLookups) {
  RoutingTable t(6, RoutingMode::kBidirectional);
  t.set_route({0, 1, 2});
  t.set_route({3, 4, 5});
  const PathView a = t.route(0, 2);
  const PathView b = t.route(3, 5);
  // Lookups do not mutate; both views must still read correctly.
  EXPECT_EQ(a, (Path{0, 1, 2}));
  EXPECT_EQ(b, (Path{3, 4, 5}));
  EXPECT_EQ(t.route(2, 0), (Path{2, 1, 0}));
}

TEST(RouteArena, ArenaSizeTracksStoredNodes) {
  RoutingTable t(6, RoutingMode::kBidirectional);
  EXPECT_EQ(t.arena_size(), 0u);
  t.set_route({0, 1, 2});  // stored twice (both directions)
  EXPECT_EQ(t.arena_size(), 6u);
  t.set_route({0, 1, 2});  // no-op, no growth
  EXPECT_EQ(t.arena_size(), 6u);
  t.set_route({4, 5});
  EXPECT_EQ(t.arena_size(), 10u);
}

TEST(RouteArena, ForEachViewMatchesForEach) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  std::map<std::pair<Node, Node>, Path> from_view;
  kr.table.for_each_view([&](Node x, Node y, PathView p) {
    from_view[{x, y}] = p.to_path();
  });
  std::map<std::pair<Node, Node>, Path> from_path;
  kr.table.for_each(
      [&](Node x, Node y, const Path& p) { from_path[{x, y}] = p; });
  EXPECT_EQ(from_view, from_path);
  EXPECT_EQ(from_view.size(), kr.table.num_routes());
}

TEST(RouteArena, DifferentialAgainstReferenceMap) {
  // Drive the open-addressed index through enough inserts to force several
  // rehashes, mirrored against a std::map reference model.
  const std::size_t n = 64;
  RoutingTable t(n, RoutingMode::kUnidirectional);
  std::map<std::pair<Node, Node>, Path> ref;
  Rng rng(2024);
  for (std::size_t i = 0; i < 4000; ++i) {
    const Node x = static_cast<Node>(rng.below(n));
    Node y = static_cast<Node>(rng.below(n));
    while (y == x) y = static_cast<Node>(rng.below(n));
    const Node mid = static_cast<Node>(rng.below(n));
    Path p{x, y};
    if (mid != x && mid != y) p = Path{x, mid, y};
    if (ref.count({x, y})) {
      if (ref[{x, y}] == p) {
        EXPECT_NO_THROW(t.set_route(p));
      } else {
        EXPECT_THROW(t.set_route(p), ContractViolation);
      }
    } else {
      t.set_route(p);
      ref[{x, y}] = p;
    }
  }
  EXPECT_EQ(t.num_routes(), ref.size());
  for (const auto& [pair, path] : ref) {
    EXPECT_EQ(t.route(pair.first, pair.second), path);
  }
}

TEST(RouteArena, SerializationRoundTripOnKernelRouting) {
  // A non-trivial table: the kernel construction on a 5x5 torus (hundreds
  // of routes through a separating set).
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  ASSERT_GT(kr.table.num_routes(), 100u);

  const std::string text = routing_table_to_string(kr.table);
  const RoutingTable loaded = routing_table_from_string(text);

  EXPECT_EQ(loaded.num_nodes(), kr.table.num_nodes());
  EXPECT_EQ(loaded.mode(), kr.table.mode());
  EXPECT_EQ(loaded.num_routes(), kr.table.num_routes());
  loaded.validate(gg.graph);
  kr.table.for_each_view([&](Node x, Node y, PathView p) {
    EXPECT_EQ(loaded.route(x, y), p) << "pair (" << x << "," << y << ")";
  });
  const auto s1 = kr.table.stats();
  const auto s2 = loaded.stats();
  EXPECT_EQ(s1.ordered_pairs, s2.ordered_pairs);
  EXPECT_EQ(s1.max_hops, s2.max_hops);
  EXPECT_DOUBLE_EQ(s1.avg_hops, s2.avg_hops);
}

TEST(MultiRouteArena, RoutesMatchIteration) {
  RoutingTable t(8, RoutingMode::kBidirectional, 3);
  t.set_route({0, 1, 5});
  t.set_route({0, 2, 5});
  t.set_route({0, 3, 5});
  const auto routes = t.routes(0, 5);
  ASSERT_EQ(routes.size(), 3u);
  std::size_t i = 0;
  t.for_each_view([&](Node x, Node y, PathView v) {
    if (x == 0 && y == 5) {
      EXPECT_EQ(v, routes[i++]);
    }
  });
  EXPECT_EQ(i, 3u);
  EXPECT_EQ(t.routes(5, 0).size(), 3u);
  EXPECT_TRUE(t.routes(1, 2).empty());
  EXPECT_EQ(t.route(0, 5), routes[0]);
}

TEST(MultiRouteArena, CapAndDuplicateDisciplinePreserved) {
  RoutingTable t(8, RoutingMode::kBidirectional, 2);
  t.set_route({0, 1, 5});
  t.set_route({0, 1, 5});  // duplicate: ignored
  EXPECT_EQ(t.routes(0, 5).size(), 1u);
  t.set_route({0, 2, 5});
  EXPECT_THROW(t.set_route({0, 3, 5}), ContractViolation);
  EXPECT_FALSE(t.try_set_route({0, 4, 5}));
  EXPECT_TRUE(t.try_set_route({0, 2, 5}));  // duplicate reports success
  EXPECT_EQ(t.num_routes(), 4u);            // 2 routes x 2 directions
  EXPECT_EQ(t.num_pairs(), 2u);
}

TEST(MultiRouteArena, DifferentialAgainstReferenceMultimap) {
  // Parallel routes through enough inserts to force several rehashes: each
  // pair keeps its routes in insertion order on its probe run, against a
  // std::map reference model, and iteration is pair-major.
  const std::size_t n = 48;
  const std::size_t cap = 3;
  RoutingTable t(n, RoutingMode::kUnidirectional, cap);
  std::map<std::pair<Node, Node>, std::vector<Path>> ref;
  std::vector<std::pair<Node, Node>> first_seen;
  Rng rng(2025);
  for (std::size_t i = 0; i < 3000; ++i) {
    const Node x = static_cast<Node>(rng.below(n));
    Node y = static_cast<Node>(rng.below(n));
    while (y == x) y = static_cast<Node>(rng.below(n));
    const Node mid = static_cast<Node>(rng.below(4));  // few distinct paths
    Path p{x, y};
    if (mid != x && mid != y) p = Path{x, mid, y};
    auto& held = ref[{x, y}];
    const bool dup = std::find(held.begin(), held.end(), p) != held.end();
    if (!dup && held.size() == cap) {
      EXPECT_THROW(t.set_route(p), ContractViolation);
      continue;
    }
    t.set_route(p);
    if (!dup) {
      if (held.empty()) first_seen.emplace_back(x, y);
      held.push_back(p);
    }
  }
  std::size_t total = 0;
  for (const auto& [pair, paths] : ref) {
    const auto got = t.routes(pair.first, pair.second);
    ASSERT_EQ(got.size(), paths.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], paths[i]);
    total += paths.size();
  }
  EXPECT_EQ(t.num_routes(), total);
  EXPECT_EQ(t.num_pairs(), first_seen.size());
  std::vector<Path> want;
  for (const auto& pair : first_seen) {
    for (const Path& p : ref[pair]) want.push_back(p);
  }
  std::vector<Path> seen;
  t.for_each([&](Node, Node, const Path& p) { seen.push_back(p); });
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace ftr
