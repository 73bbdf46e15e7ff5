// SrgIndex + SrgScratch must be observationally identical to the one-shot
// path in fault/surviving.cpp — same arcs, survivors and diameters, and the
// same delivery paths — while reusing scratch state across arbitrary
// interleavings of fault sets. These tests are differential: every scratch
// answer is checked against the straightforward implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "delivery_oracle.hpp"
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

// One fault set through the scratch against the one-shot surviving graph:
// arc and survivor counts, the diameter, and every ordered survivor pair's
// route_path against the oracle BFS. A length-1 path is exactly an arc, so
// the pair check covers the arc set itself, not just its size.
template <class Table>
void expect_matches_one_shot(SrgScratch& scratch, const Table& table,
                             const std::vector<Node>& faults) {
  const auto res = scratch.evaluate(faults);
  const Digraph r = surviving_graph(table, faults);
  EXPECT_EQ(res.arcs, r.num_arcs());
  EXPECT_EQ(res.survivors, r.num_present());
  EXPECT_EQ(res.diameter, surviving_diameter(table, faults));
  const auto nodes = r.present_nodes();
  const auto survivors = scratch.last_survivors();
  ASSERT_EQ(std::vector<Node>(survivors.begin(), survivors.end()), nodes);
  for (Node s : nodes) {
    for (Node t : nodes) {
      const auto got = scratch.route_path(s, t);
      ASSERT_EQ(std::vector<Node>(got.begin(), got.end()),
                oracle_route_path(r, s, t))
          << "pair " << s << "->" << t;
    }
  }
}

TEST(SrgEngine, MatchesOneShotOnKernelRouting) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  EXPECT_EQ(index.num_nodes(), kr.table.num_nodes());
  EXPECT_EQ(index.num_routes(), kr.table.num_routes());

  Rng rng(31);
  for (std::size_t f : {0u, 1u, 3u, 6u, 10u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 8, rng);
    for (const auto& faults : sets) {
      SCOPED_TRACE("f=" + std::to_string(f));
      expect_matches_one_shot(scratch, kr.table, faults);
    }
  }
}

TEST(SrgEngine, MatchesOneShotOnMultirouting) {
  const auto gg = cube_connected_cycles(3);
  Rng rng(7);
  const RoutingTable table = build_full_multirouting(gg.graph, 2);
  const SrgIndex index(table);
  SrgScratch scratch(index);
  EXPECT_EQ(index.num_pairs(), table.num_pairs());
  EXPECT_EQ(index.num_routes(), table.num_routes());

  for (std::size_t f : {0u, 2u, 4u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      SCOPED_TRACE("f=" + std::to_string(f));
      expect_matches_one_shot(scratch, table, faults);
    }
  }
}

// Sparse strikes on a table whose pairs have four disjoint routes: most
// struck pairs lose some routes and keep their arc. Delivery paths and the
// componentwise metric read the struck set's rows, so they must match the
// one-shot graph too, on a scratch that also evaluates heavier sets in
// between (every set must start from the fault-free rows again).
TEST(SrgEngine, SparseStrikeDeliveryOnMultirouting) {
  const auto gg = hypercube(4);
  const RoutingTable table = build_full_multirouting(gg.graph, 3);
  const SrgIndex index(table);
  SrgScratch scratch(index);
  Rng rng(61);
  std::vector<std::vector<Node>> sets = {{}, {0}, {15}, {0, 15}, {3, 3, 12}};
  for (std::size_t f : {2u, 4u, 6u}) {
    for (auto& set : random_fault_sets(16, f, 5, rng)) sets.push_back(set);
  }
  for (const auto& faults : sets) {
    SCOPED_TRACE("faults " + ::testing::PrintToString(faults));
    expect_matches_one_shot(scratch, table, faults);
    scratch.evaluate(std::vector<Node>{1, 2, 4, 8, 7, 11, 13, 14});
  }
}

TEST(SrgEngine, SparseStrikeComponentwiseOnPlannerTorus) {
  const auto gg = torus_graph(6, 6);
  Rng rng(19);
  const auto planned = build_planned_routing(gg.graph, std::nullopt, rng);
  const SrgIndex index(planned.table);
  SrgScratch scratch(index);
  for (std::size_t f : {0u, 2u, 5u, 9u}) {
    for (const auto& faults : random_fault_sets(36, f, 6, rng)) {
      SCOPED_TRACE("f=" + std::to_string(f));
      const auto batched =
          componentwise_surviving_diameter(gg.graph, scratch, faults);
      const auto oneshot =
          componentwise_surviving_diameter(gg.graph, planned.table, faults);
      EXPECT_EQ(batched.worst, oneshot.worst);
      EXPECT_EQ(batched.num_components, oneshot.num_components);
      EXPECT_EQ(batched.survivors, oneshot.survivors);
      expect_matches_one_shot(scratch, planned.table, faults);
    }
  }
}

TEST(SrgEngine, ScratchReuseIsOrderIndependent) {
  // Alternate between heavy and light fault sets; stale stamps from one
  // evaluation must never leak into the next.
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(99);
  const auto heavy = random_fault_sets(16, 6, 10, rng);
  const auto light = random_fault_sets(16, 1, 10, rng);
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    EXPECT_EQ(scratch.surviving_diameter(heavy[i]),
              surviving_diameter(kr.table, heavy[i]));
    EXPECT_EQ(scratch.surviving_diameter(light[i]),
              surviving_diameter(kr.table, light[i]));
    EXPECT_EQ(scratch.surviving_diameter(std::vector<Node>{}),
              surviving_diameter(kr.table, {}));
  }
}

TEST(SrgEngine, DuplicateAndOutOfRangeFaults) {
  const auto gg = cycle_graph(8);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);
  const std::vector<Node> dup{2, 2, 5};
  EXPECT_EQ(scratch.surviving_diameter(dup), surviving_diameter(t, dup));
  EXPECT_THROW(scratch.surviving_diameter(std::vector<Node>{9}),
               ContractViolation);
}

TEST(SrgEngine, EvaluateReportsSurvivorsAndArcs) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);

  const auto clean = scratch.evaluate(std::vector<Node>{});
  EXPECT_EQ(clean.survivors, 6u);
  EXPECT_EQ(clean.arcs, 12u);  // 6 edges, both directions
  EXPECT_EQ(clean.diameter, 3u);

  const auto struck = scratch.evaluate(std::vector<Node>{0});
  EXPECT_EQ(struck.survivors, 5u);
  EXPECT_EQ(struck.arcs, 8u);          // arcs touching node 0 are gone
  EXPECT_EQ(struck.diameter, 4u);      // cycle minus a node = 5-node path
}

TEST(SrgEngine, FewSurvivorsDiameterZero) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({1, 2});
  builder.set_route({0, 1, 2});
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);
  EXPECT_EQ(scratch.surviving_diameter(std::vector<Node>{0, 1}), 0u);
  EXPECT_EQ(scratch.surviving_diameter(std::vector<Node>{0, 1, 2}), 0u);
}

TEST(SrgEngine, ComponentwiseMatchesRecoveryMetric) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(515);
  for (std::size_t f : {3u, 5u, 7u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      const auto batched =
          componentwise_surviving_diameter(gg.graph, scratch, faults);
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

// An index built from a RoutingTable reads the table's own route bytes,
// not a copy, and keeps them: destroying the table leaves the index's
// results unchanged.
TEST(SrgEngine, IndexSharesTheTableRoutesAndOutlivesTheTable) {
  const auto cycle = cycle_graph(8);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_edge_routes(builder, cycle.graph);
  builder.set_route({0, 1, 2});
  builder.set_route({3, 4, 5, 6});
  auto table = std::make_unique<RoutingTable>(std::move(builder).build());
  const SrgIndex index(*table);
  std::uint32_t r = 0;
  table->for_each_view([&](Node, Node, PathView path) {
    EXPECT_EQ(index.route(r).data(), path.data()) << "route " << r;
    EXPECT_EQ(index.route(r).size(), path.size()) << "route " << r;
    ++r;
  });
  EXPECT_EQ(r, index.num_routes());

  const auto results = [&index] {
    std::vector<SrgScratch::Result> out;
    SrgScratch scratch(index);
    for (std::size_t f = 0; f <= 2; ++f) {
      GraySubsetEnumerator e(index.num_nodes(), f);
      for (bool more = e.valid(); more; more = e.advance()) {
        const std::vector<Node> faults(e.current().begin(),
                                       e.current().end());
        out.push_back(scratch.evaluate(faults));
      }
    }
    return out;
  };
  const auto expect_same = [](const std::vector<SrgScratch::Result>& a,
                              const std::vector<SrgScratch::Result>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].diameter, b[i].diameter) << "set " << i;
      EXPECT_EQ(a[i].survivors, b[i].survivors) << "set " << i;
      EXPECT_EQ(a[i].arcs, b[i].arcs) << "set " << i;
    }
  };
  const auto before = results();
  const PathView first = index.route(0);
  const Path first_nodes = first.to_path();

  table.reset();
  EXPECT_EQ(index.route(0).data(), first.data());
  EXPECT_EQ(index.route(0), first_nodes);
  expect_same(before, results());
}

// A multirouting's index shares its table's route bytes too: the table is
// stored pair-major, which is the order the index numbers routes in.
TEST(SrgEngine, IndexSharesAMultiroutingsRoutes) {
  RouteTableBuilder builder(8, RoutingMode::kBidirectional, 2);
  builder.set_route({0, 1, 2});
  builder.set_route({3, 4, 5});
  builder.set_route({0, 7, 2});  // a second route of (0, 2), added later
  const RoutingTable table = std::move(builder).build();
  ASSERT_GT(table.num_routes(), table.num_pairs());
  const SrgIndex index(table);
  ASSERT_EQ(index.num_routes(), table.num_routes());
  std::uint32_t r = 0;
  table.for_each_view([&](Node, Node, PathView path) {
    EXPECT_EQ(index.route(r).data(), path.data()) << "route " << r;
    EXPECT_EQ(index.route(r), path) << "route " << r;
    ++r;
  });
  EXPECT_EQ(index.route(1), (Path{0, 7, 2}));  // pair-major
}

// A table with parallel routes is stored pair-major: pairs in order of
// their first route, each pair's routes in insertion order, as consecutive
// route ids. FNV-1a over each pair's endpoints followed by its routes'
// nodes, read from the index; the expected values were recorded with the
// index built from the separate multiroute table class of commit 8513635,
// and every witness depends on this order.
struct LayoutHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t index_layout_hash(const SrgIndex& index) {
  LayoutHash f;
  std::size_t pairs = 0;
  for (std::uint32_t r = 0; r < index.num_routes(); ++r) {
    const PathView p = index.route(r);
    if (r == 0 || index.route(r - 1).front() != p.front() ||
        index.route(r - 1).back() != p.back()) {
      ++pairs;  // the pair's first route
      f.add(p.front());
      f.add(p.back());
    }
    for (Node v : p) f.add(v);
  }
  EXPECT_EQ(pairs, index.num_pairs());
  return f.h;
}

TEST(SrgEngine, MultiTableIndexLayoutIsPinned) {
  {
    const auto gg = petersen_graph();
    const RoutingTable table = build_full_multirouting(gg.graph, 2);
    EXPECT_EQ(index_layout_hash(SrgIndex(table)), 0xb1aa97380b353275ull);
  }
  {
    const auto gg = cube_connected_cycles(3);
    const auto mr = build_kernel_multirouting(gg.graph, 2);
    EXPECT_EQ(index_layout_hash(SrgIndex(mr.table)), 0xcde688a79a589ba5ull);
  }
  {
    const auto gg = torus_graph(4, 4);
    const auto mr = build_mult_routing(gg.graph, 3);
    EXPECT_EQ(index_layout_hash(SrgIndex(mr.table)), 0x0d117347a1dfd615ull);
  }
}

TEST(SrgEngine, EpochWraparound) {
  // Force the epoch counter across the 2^32 wrap and check the scratch
  // keeps matching the one-shot surviving graph on every side of it: the
  // fault/route/pair stamps are re-zeroed at the wrap (the bitset BFS is
  // stamp-free). Every Result field is compared, so a stale route or pair
  // stamp that survived the wrap shows up in the arc count even where the
  // diameter happens to agree. The wrap lands mid-list, then on the very
  // first set.
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(3);
  const auto sets = random_fault_sets(16, 3, 10, rng);
  const auto expect_one_shot = [&](const std::vector<Node>& faults,
                                   const char* phase) {
    const Digraph r = surviving_graph(kr.table, faults);
    const auto got = scratch.evaluate(faults);
    EXPECT_EQ(got.diameter, diameter(r)) << phase;
    EXPECT_EQ(got.survivors, r.num_present()) << phase;
    EXPECT_EQ(got.arcs, r.num_arcs()) << phase;
  };

  for (const std::uint32_t below : {3u, 0u}) {
    scratch.set_epochs_for_testing(~std::uint32_t{0} - below);
    for (const auto& faults : sets) expect_one_shot(faults, "across wrap");

    // An explicit reset must be behavior-preserving as well.
    scratch.reset();
    for (const auto& faults : sets) expect_one_shot(faults, "after reset");
  }
}

TEST(SrgEngine, EpochWraparoundOnRoutePaths) {
  const auto gg = cycle_graph(8);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);
  scratch.set_epochs_for_testing(~std::uint32_t{0} - 1);
  const std::vector<Node> faults{2, 5};
  for (int round = 0; round < 4; ++round) {  // crosses the wrap mid-loop
    expect_matches_one_shot(scratch, t, faults);
  }
}

TEST(SrgEngine, CircularRoutingSweepAgainstOneShot) {
  const auto gg = torus_graph(5, 5);
  Rng rng(42);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  const auto cr = build_circular_routing(gg.graph, 3, m);
  const SrgIndex index(cr.table);
  SrgScratch scratch(index);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 20, rng);
  for (const auto& faults : sets) {
    EXPECT_EQ(scratch.surviving_diameter(faults),
              surviving_diameter(cr.table, faults));
  }
}

}  // namespace
}  // namespace ftr
