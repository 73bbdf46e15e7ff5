// Arena-specific coverage for the flat RoutingTable storage (one route per
// pair and capped multiroutes): view stability, conflict discipline at
// scale, the frozen table against the builder that made it, iteration
// order, and serialization round-trips on non-trivial tables — plus the
// FlatArray sharing rules that storage rests on. The behavioral basics
// (mirroring, no-op reassignment, stats) live in test_route_table.cpp;
// here we stress the arena against a reference implementation and through
// realistic construction workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "analysis/two_trees.hpp"
#include "common/contracts.hpp"
#include "common/flat_array.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/bipolar.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"
#include "routing/serialization.hpp"
#include "routing/tricircular.hpp"

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
  // Replacing the copy, the mapping's last holder, releases it.
  copy = U32Array(std::vector<std::uint32_t>{1});
  EXPECT_FALSE(copy.aliased_view());
  EXPECT_TRUE(watch.expired());
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
  // A moved-from array can be assigned again.
  b = U32Array(std::vector<std::uint32_t>{3});
  EXPECT_EQ(b, U32Array(std::vector<std::uint32_t>{3}));
}

TEST(RouteArena, ViewsStayValidAcrossLookups) {
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({3, 4, 5});
  const RoutingTable t = std::move(builder).build();
  const PathView a = t.route(0, 2);
  const PathView b = t.route(3, 5);
  // Lookups do not mutate; both views must still read correctly.
  EXPECT_EQ(a, (Path{0, 1, 2}));
  EXPECT_EQ(b, (Path{3, 4, 5}));
  EXPECT_EQ(t.route(2, 0), (Path{2, 1, 0}));
}

TEST(RouteArena, ArenaSizeTracksStoredNodes) {
  RouteTableBuilder b(6, RoutingMode::kBidirectional);
  EXPECT_EQ(RouteTableBuilder(b).build().arena_size(), 0u);
  b.set_route({0, 1, 2});  // stored twice (both directions)
  EXPECT_EQ(RouteTableBuilder(b).build().arena_size(), 6u);
  b.set_route({0, 1, 2});  // no-op, no growth
  EXPECT_EQ(RouteTableBuilder(b).build().arena_size(), 6u);
  b.set_route({4, 5});
  EXPECT_EQ(std::move(b).build().arena_size(), 10u);
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
  // Enough inserts to fill most pairs of a 64-node table, mirrored against
  // a std::map reference model; every ordered pair of the built table,
  // routed or not, answers as the model does.
  const std::size_t n = 64;
  RouteTableBuilder b(n, RoutingMode::kUnidirectional);
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
        EXPECT_NO_THROW(b.set_route(p));
      } else {
        EXPECT_THROW(b.set_route(p), ContractViolation);
      }
    } else {
      b.set_route(p);
      ref[{x, y}] = p;
    }
  }
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.num_routes(), ref.size());
  for (Node x = 0; x < n; ++x) {
    for (Node y = 0; y < n; ++y) {
      const auto it = ref.find({x, y});
      EXPECT_EQ(t.has_route(x, y), it != ref.end());
      if (it == ref.end()) {
        EXPECT_EQ(t.route(x, y), nullptr);
      } else {
        EXPECT_EQ(t.route(x, y), it->second);
      }
    }
  }
}

// Replays `table`'s routes into a builder of the same shape — in the
// table's order, or reversed, which renumbers the pairs and reorders each
// pair's routes — and checks the built table against the builder: route(x,
// y) is the builder's first path of (x, y) for every ordered pair, routes()
// its paths in insertion order, and iteration pair-major.
void expect_build_matches_builder(const RoutingTable& table, bool reversed) {
  std::vector<Path> replay;
  table.for_each([&](Node, Node, const Path& p) { replay.push_back(p); });
  if (reversed) std::reverse(replay.begin(), replay.end());
  RouteTableBuilder b(table.num_nodes(), table.mode(),
                      table.max_routes_per_pair());
  for (const Path& p : replay) b.set_route(p);
  std::map<std::pair<Node, Node>, std::vector<Path>> held;
  std::vector<std::pair<Node, Node>> first_seen;
  b.for_each_view([&](Node x, Node y, PathView p) {
    auto& paths = held[{x, y}];
    if (paths.empty()) first_seen.emplace_back(x, y);
    paths.push_back(p.to_path());
  });
  const RoutingTable built = std::move(b).build();
  EXPECT_EQ(built.num_pairs(), held.size());
  EXPECT_EQ(built.num_routes(), table.num_routes());
  for (Node x = 0; x < built.num_nodes(); ++x) {
    for (Node y = 0; y < built.num_nodes(); ++y) {
      const auto it = held.find({x, y});
      if (it == held.end()) {
        ASSERT_EQ(built.route(x, y), nullptr) << x << " -> " << y;
        continue;
      }
      ASSERT_EQ(built.route(x, y), it->second.front()) << x << " -> " << y;
      const auto routes = built.routes(x, y);
      ASSERT_EQ(routes.size(), it->second.size()) << x << " -> " << y;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        EXPECT_EQ(routes[i], it->second[i]) << x << " -> " << y;
      }
    }
  }
  std::vector<Path> want;
  for (const auto& pair : first_seen) {
    for (const Path& p : held[pair]) want.push_back(p);
  }
  std::vector<Path> seen;
  built.for_each([&](Node, Node, const Path& p) { seen.push_back(p); });
  EXPECT_EQ(seen, want);
  if (!reversed) {
    EXPECT_EQ(seen, replay);
  }
}

TEST(RouteArena, BuiltTableAnswersAsItsBuilderOnEveryConstruction) {
  Rng rng(7);
  std::vector<std::pair<std::string, RoutingTable>> tables;
  {
    const auto gg = torus_graph(5, 5);
    tables.emplace_back(
        "planner/torus",
        build_planned_routing(gg.graph, std::nullopt, rng).table);
    tables.emplace_back("kernel/torus",
                        build_kernel_routing(gg.graph, 3).table);
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    tables.emplace_back("circular/torus",
                        build_circular_routing(gg.graph, 3, m).table);
  }
  {
    const auto gg = cycle_graph(48);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    tables.emplace_back("tricircular/cycle",
                        build_tricircular_routing(gg.graph, 1, m).table);
  }
  {
    const auto gg = cycle_graph(14);
    const auto roots = find_two_trees(gg.graph);
    ASSERT_TRUE(roots.has_value());
    tables.emplace_back(
        "bipolar-uni/cycle",
        build_bipolar_unidirectional(gg.graph, 1, *roots).table);
  }
  {
    const auto gg = petersen_graph();
    tables.emplace_back("full-multirouting/petersen",
                        build_full_multirouting(gg.graph, 2));
  }
  for (const auto& [name, table] : tables) {
    SCOPED_TRACE(name);
    ASSERT_GT(table.num_routes(), 0u);
    expect_build_matches_builder(table, /*reversed=*/false);
    expect_build_matches_builder(table, /*reversed=*/true);
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
  RouteTableBuilder b(8, RoutingMode::kBidirectional, 3);
  b.set_route({0, 1, 5});
  b.set_route({0, 2, 5});
  b.set_route({0, 3, 5});
  const RoutingTable t = std::move(b).build();
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
  RouteTableBuilder b(8, RoutingMode::kBidirectional, 2);
  b.set_route({0, 1, 5});
  b.set_route({0, 1, 5});  // duplicate: ignored
  EXPECT_EQ(b.num_routes(), 2u);
  b.set_route({0, 2, 5});
  EXPECT_THROW(b.set_route({0, 3, 5}), ContractViolation);
  EXPECT_FALSE(b.try_set_route({0, 4, 5}));
  EXPECT_TRUE(b.try_set_route({0, 2, 5}));  // duplicate reports success
  const RoutingTable t = std::move(b).build();
  EXPECT_EQ(t.num_routes(), 4u);            // 2 routes x 2 directions
  EXPECT_EQ(t.num_pairs(), 2u);
}

TEST(MultiRouteArena, DifferentialAgainstReferenceMultimap) {
  // Parallel routes through thousands of inserts against a std::map
  // reference model: the built table holds each pair's routes in insertion
  // order, answers route(), routes() and has_route() for every ordered
  // pair as the model does, and iterates pair-major.
  const std::size_t n = 48;
  const std::size_t cap = 3;
  RouteTableBuilder b(n, RoutingMode::kUnidirectional, cap);
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
      EXPECT_THROW(b.set_route(p), ContractViolation);
      continue;
    }
    b.set_route(p);
    if (!dup) {
      if (held.empty()) first_seen.emplace_back(x, y);
      held.push_back(p);
    }
  }
  const RoutingTable t = std::move(b).build();
  std::size_t total = 0;
  for (Node x = 0; x < n; ++x) {
    for (Node y = 0; y < n; ++y) {
      const auto it = ref.find({x, y});
      const bool routed = it != ref.end() && !it->second.empty();
      EXPECT_EQ(t.has_route(x, y), routed);
      const auto got = t.routes(x, y);
      if (!routed) {
        EXPECT_EQ(t.route(x, y), nullptr);
        EXPECT_TRUE(got.empty());
        continue;
      }
      EXPECT_EQ(t.route(x, y), it->second.front());
      ASSERT_EQ(got.size(), it->second.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], it->second[i]);
      }
      total += got.size();
    }
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
