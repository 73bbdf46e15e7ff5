#include "sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/planner.hpp"
#include "delivery_oracle.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/hypercube_routing.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"

namespace ftr {
namespace {

DeliveryStats deliver(const RoutingTable& t, const std::vector<Node>& faults,
                      std::size_t sample_pairs, Rng& rng) {
  const SrgIndex index(t);
  SrgScratch scratch(index);
  scratch.evaluate(faults);
  return measure_delivery(scratch, sample_pairs, rng);
}

void expect_same_stats(const DeliveryStats& a, const DeliveryStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.pairs_sampled, b.pairs_sampled) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.avg_route_hops, b.avg_route_hops) << what;
  EXPECT_EQ(a.max_route_hops, b.max_route_hops) << what;
  EXPECT_EQ(a.avg_edge_hops, b.avg_edge_hops) << what;
  EXPECT_EQ(a.max_edge_hops, b.max_edge_hops) << what;
  EXPECT_EQ(a.route_hops_total, b.route_hops_total) << what;
  EXPECT_EQ(a.edge_hops_total, b.edge_hops_total) << what;
}

// How the scratch learns the fault set before delivery: a full evaluate()
// (strike + bitset rows), or set_faults() alone, which stamps the faults
// and nothing else — the path sweeps take for sets evaluated in packed
// blocks.
enum class Prime { kEvaluate, kSetFaults };

// Every ordered survivor pair's route_path equals the Digraph oracle's BFS
// path on the one-shot surviving graph, and measure_delivery equals the
// oracle measure for every sample size (same draws, same totals); an
// evaluate() prime must also report that graph's diameter, survivors and
// arcs. Returns the longest path found, in arcs.
std::size_t expect_matches_oracle(const RoutingTable& table,
                                  SrgScratch& scratch,
                                  const std::vector<Node>& faults,
                                  const std::string& what,
                                  Prime prime = Prime::kEvaluate) {
  const Digraph surviving = surviving_graph(table, faults);
  if (prime == Prime::kEvaluate) {
    const auto res = scratch.evaluate(faults);
    EXPECT_EQ(res.diameter, diameter(surviving)) << what;
    EXPECT_EQ(res.survivors, surviving.num_present()) << what;
    EXPECT_EQ(res.arcs, surviving.num_arcs()) << what;
  } else {
    scratch.set_faults(faults);
  }
  std::size_t longest = 0;
  const auto nodes = surviving.present_nodes();
  const auto survivors = scratch.last_survivors();
  const std::vector<Node> listed(survivors.begin(), survivors.end());
  EXPECT_EQ(listed, nodes) << what;
  if (listed != nodes) return 0;
  for (Node s : nodes) {
    for (Node t : nodes) {
      const auto got = scratch.route_path(s, t);
      EXPECT_EQ(std::vector<Node>(got.begin(), got.end()),
                oracle_route_path(surviving, s, t))
          << what << " pair " << s << "->" << t;
      if (!got.empty()) longest = std::max(longest, got.size() - 1);
    }
  }
  for (const std::size_t pairs : {0u, 1u, 7u}) {
    Rng a(1000 + pairs);
    Rng b(1000 + pairs);
    const auto got = measure_delivery(scratch, pairs, a);
    const auto want = oracle_measure_delivery(table, faults, pairs, b);
    expect_same_stats(got, want, what + " pairs=" + std::to_string(pairs));
    EXPECT_EQ(a(), b()) << what << " (same number of draws)";
  }
  return longest;
}

void run_differential(const RoutingTable& table,
                      const std::vector<std::vector<Node>>& extra_sets,
                      const std::string& name) {
  const SrgIndex index(table);
  const std::size_t n = table.num_nodes();
  {
    SrgScratch scratch(index);
    Rng rng(77);
    for (std::size_t f = 0; f <= 4; ++f) {
      for (const auto& faults : random_fault_sets(n, f, 3, rng)) {
        expect_matches_oracle(table, scratch, faults,
                              name + " f=" + std::to_string(f));
      }
    }
    for (const auto& faults : extra_sets) {
      expect_matches_oracle(table, scratch, faults, name + " extra");
    }
  }
  // Stamps alone, on a scratch that never strikes: the same paths and
  // measures, with no evaluation behind them.
  SrgScratch stamped(index);
  Rng rng(77);
  for (std::size_t f = 0; f <= 4; ++f) {
    for (const auto& faults : random_fault_sets(n, f, 3, rng)) {
      expect_matches_oracle(table, stamped, faults,
                            name + " set_faults f=" + std::to_string(f),
                            Prime::kSetFaults);
    }
  }
  for (const auto& faults : extra_sets) {
    expect_matches_oracle(table, stamped, faults, name + " set_faults extra",
                          Prime::kSetFaults);
  }
}

TEST(NetworkSim, AllPairsOnEdgeRouting) {
  const auto gg = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  Rng rng(1);
  const auto stats = deliver(t, {}, 0, rng);
  EXPECT_EQ(stats.pairs_sampled, 30u);
  EXPECT_EQ(stats.delivered, 30u);
  // With only edge routes, route hops equal graph distance: max = 3 on C6.
  EXPECT_EQ(stats.max_route_hops, 3u);
  EXPECT_EQ(stats.max_edge_hops, 3u);
}

TEST(NetworkSim, SamplingCountsPairs) {
  const auto gg = cycle_graph(8);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  Rng rng(2);
  const auto stats = deliver(t, {}, 40, rng);
  EXPECT_EQ(stats.pairs_sampled, 40u);
  EXPECT_EQ(stats.delivered, 40u);
}

TEST(NetworkSim, KernelRoutingDeliversUnderFaults) {
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  Rng rng(3);
  const auto stats = deliver(kr.table, {0, 7}, 0, rng);
  EXPECT_EQ(stats.delivered, stats.pairs_sampled);
  // Theorem 3 bound: 2t = 4 route hops worst case.
  EXPECT_LE(stats.max_route_hops, 4u);
  // Edge hops can exceed route hops (multi-hop routes).
  EXPECT_GE(stats.avg_edge_hops, stats.avg_route_hops);
}

TEST(NetworkSim, UndeliveredCountedWhenRoutingDisconnects) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({2, 3});
  const RoutingTable t = std::move(builder).build();
  Rng rng(4);
  const auto stats = deliver(t, {}, 0, rng);
  EXPECT_EQ(stats.pairs_sampled, 12u);
  EXPECT_EQ(stats.delivered, 4u);  // only within the two pairs
}

TEST(NetworkSim, FewSurvivorsShortCircuit) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  Rng rng(5);
  const auto stats = deliver(t, {0, 1}, 10, rng);
  EXPECT_EQ(stats.pairs_sampled, 0u);
}

TEST(NetworkSim, AveragesAreConsistent) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(6);
  const auto stats = deliver(kr.table, {5}, 0, rng);
  EXPECT_GT(stats.avg_route_hops, 0.0);
  EXPECT_LE(stats.avg_route_hops, static_cast<double>(stats.max_route_hops));
  EXPECT_LE(stats.avg_edge_hops, static_cast<double>(stats.max_edge_hops));
}

TEST(NetworkSim, RoutePathNeedsAnEvaluationAndLiveEndpoints) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);
  EXPECT_THROW(scratch.route_path(0, 1), ContractViolation);
  EXPECT_THROW(scratch.last_survivors(), ContractViolation);
  scratch.evaluate(std::vector<Node>{2});
  EXPECT_EQ(scratch.route_path(0, 1).size(), 2u);
  EXPECT_EQ(scratch.route_path(1, 1).size(), 1u);
  EXPECT_THROW(scratch.route_path(0, 2), ContractViolation);
  scratch.evaluate(std::vector<Node>{});
  EXPECT_TRUE(scratch.route_path(0, 2).empty());  // 2 is isolated
}

// set_faults() alone drives delivery on every shortcut: the direct arc,
// the lowest two-arc detour, and the full BFS, which only paths of three or
// more arcs reach. Edge routes on a ring make every pair's path as long as
// its ring distance, and interleaving set_faults() with evaluate() on one
// scratch must not leave either reading the other's set.
TEST(NetworkSimDifferential, SetFaultsAloneMatchesOracleOnLongPaths) {
  const auto gg = cycle_graph(12);
  RouteTableBuilder builder(12, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable ring = std::move(builder).build();
  const SrgIndex index(ring);
  SrgScratch scratch(index);
  std::size_t longest = 0;
  for (const auto& faults : std::vector<std::vector<Node>>{
           {}, {3}, {3, 3}, {0, 6}, {1, 2, 9}}) {
    longest = std::max(
        longest, expect_matches_oracle(ring, scratch, faults, "ring set_faults",
                                       Prime::kSetFaults));
    expect_matches_oracle(ring, scratch, {5}, "ring evaluate");
  }
  EXPECT_GE(longest, 3u);

  // Multi-arc routes on the planner torus: stamps alone, target at
  // distance >= 3 included when the faults stretch the route graph.
  const auto torus = torus_graph(5, 5);
  Rng rng(12);
  const auto planned =
      build_planned_routing(torus.graph, torus.known_connectivity, rng);
  const SrgIndex tindex(planned.table);
  SrgScratch tscratch(tindex);
  const auto around = torus.graph.neighbors(0);
  std::vector<Node> three(around.begin(), around.end());
  three.pop_back();
  longest = expect_matches_oracle(planned.table, tscratch, three,
                                  "planner torus(5,5) set_faults",
                                  Prime::kSetFaults);
  EXPECT_GE(longest, 2u);
  EXPECT_THROW(tscratch.set_faults(std::vector<Node>{25}), ContractViolation);
}

TEST(NetworkSimDifferential, PlannerTorus) {
  const auto gg = torus_graph(6, 6);
  Rng rng(11);
  const auto planned =
      build_planned_routing(gg.graph, gg.known_connectivity, rng);
  const auto ring = gg.graph.neighbors(0);
  // Killing node 0's four neighbors cuts every route out of it.
  const std::vector<Node> isolate(ring.begin(), ring.end());
  run_differential(planned.table, {isolate}, "planner torus(6,6)");
}

TEST(NetworkSimDifferential, KernelCubeConnectedCycles) {
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  // Fewer than two survivors: every node but 5 fails.
  std::vector<Node> all_but_one;
  for (Node v = 0; v < gg.graph.num_nodes(); ++v) {
    if (v != 5) all_but_one.push_back(v);
  }
  const auto ring = gg.graph.neighbors(0);
  const std::vector<Node> isolate(ring.begin(), ring.end());
  run_differential(kr.table, {all_but_one, isolate}, "kernel CCC(3)");
}

TEST(NetworkSimDifferential, HypercubeBitFixing) {
  const auto gg = hypercube(5);
  const auto ring = gg.graph.neighbors(0);
  const std::vector<Node> isolate(ring.begin(), ring.end());
  run_differential(build_bitfixing_unidirectional(gg.graph, 5), {isolate},
                   "bit-fixing Q5 uni");
  run_differential(build_bitfixing_bidirectional(gg.graph, 5), {isolate},
                   "bit-fixing Q5 bi");
}

// On a multirouting a pair's first route can be dead while a later one
// carries the arc: delivery must count the hops of the route the message
// takes (the pair's first live route), not the first route's. Checks every
// survivor pair of every set against the oracle and route by route against
// first_live_route; returns how many legs took a live route whose hop
// count differs from that of the pair's dead first route.
std::size_t expect_live_routes(const RoutingTable& table,
                               const std::vector<std::vector<Node>>& sets,
                               const std::string& name) {
  const SrgIndex index(table);
  SrgScratch scratch(index);
  std::size_t dead_first_differs = 0;
  for (const auto& faults : sets) {
    std::string what = name + " faults {";
    for (Node v : faults) {
      what += ' ';
      what += std::to_string(v);
    }
    what += " }";
    expect_matches_oracle(table, scratch, faults, what);
    const auto dead = [&](PathView route) {
      return std::any_of(route.begin(), route.end(), [&](Node v) {
        return std::find(faults.begin(), faults.end(), v) != faults.end();
      });
    };
    for (Node s : scratch.last_survivors()) {
      for (Node t : scratch.last_survivors()) {
        if (s == t) continue;
        const auto path = scratch.route_path(s, t);
        const auto taken = scratch.path_routes();
        EXPECT_EQ(taken.size() + 1, std::max<std::size_t>(path.size(), 1))
            << what;
        if (taken.size() + 1 != path.size()) continue;
        for (std::size_t i = 0; i < taken.size(); ++i) {
          const PathView route = index.route(taken[i]);
          const PathView live =
              first_live_route(table, path[i], path[i + 1], faults);
          EXPECT_EQ(std::vector<Node>(route.begin(), route.end()),
                    std::vector<Node>(live.begin(), live.end()))
              << what;
          const PathView first = table.route(path[i], path[i + 1]);
          if (dead(first) && first.hops() != live.hops()) {
            ++dead_first_differs;
          }
        }
      }
    }
  }
  return dead_first_differs;
}

// Petersen's full multirouting at t = 2, every 2-set: every surviving pair
// keeps a direct arc, often over a later route.
TEST(NetworkSimDifferential, MultiroutingCountsTheLiveRoute) {
  const auto gg = petersen_graph();
  const RoutingTable table = build_full_multirouting(gg.graph, 2);
  ASSERT_GT(table.num_routes(), table.num_pairs());
  std::vector<std::vector<Node>> sets;
  for (Node a = 0; a < 10; ++a) {
    for (Node b = a + 1; b < 10; ++b) sets.push_back({a, b});
  }
  EXPECT_GT(expect_live_routes(table, sets, "full multirouting Petersen"),
            0u);
}

// A ring whose skip pairs (i, i + 2) hold the short route first and the
// long way round second: one fault kills a short route, so paths of two
// and more arcs ride a second route.
TEST(NetworkSimDifferential, MultiroutingLiveRouteOnLongerPaths) {
  constexpr Node kN = 9;
  RouteTableBuilder builder(kN, RoutingMode::kUnidirectional, 2);
  for (Node i = 0; i < kN; ++i) {
    builder.set_route({i, (i + 1) % kN});
    builder.set_route({(i + 1) % kN, i});
    builder.set_route({i, (i + 1) % kN, (i + 2) % kN});
    Path around{i};
    for (Node k = 1; k <= kN - 2; ++k) around.push_back((i + kN - k) % kN);
    builder.set_route(around);
  }
  const RoutingTable table = std::move(builder).build();
  ASSERT_GT(table.num_routes(), table.num_pairs());
  std::vector<std::vector<Node>> sets = {{}};
  for (Node a = 0; a < kN; ++a) sets.push_back({a});
  EXPECT_GT(expect_live_routes(table, sets, "skip ring"), 0u);
}

// BFS over successor lists in ROUTE-INSERTION order (the table's own
// order) — the order route_path must not follow.
std::vector<Node> insertion_order_path(const RoutingTable& t, Node s, Node u) {
  std::vector<std::vector<Node>> succ(t.num_nodes());
  t.for_each_view([&](Node x, Node y, PathView) { succ[x].push_back(y); });
  std::vector<Node> parent(t.num_nodes(), static_cast<Node>(t.num_nodes()));
  std::vector<Node> queue{s};
  parent[s] = s;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    for (Node v : succ[queue[qi]]) {
      if (parent[v] != static_cast<Node>(t.num_nodes())) continue;
      parent[v] = queue[qi];
      queue.push_back(v);
    }
  }
  std::vector<Node> path;
  for (Node w = u; w != s; w = parent[w]) path.push_back(w);
  path.push_back(s);
  return {path.rbegin(), path.rend()};
}

TEST(NetworkSimDifferential, SuccessorOrderIsAscendingNotInsertion) {
  // Routes installed in descending (x, y) order, so every successor list
  // in insertion order is descending. From 0, BFS in ascending order
  // reaches 3 through 1 (the two-edge route 1 -> 4 -> 3); in insertion
  // order it would go through 2 (the direct edge 2 -> 3), with a different
  // edge-hop total.
  RouteTableBuilder builder(5, RoutingMode::kUnidirectional);
  builder.set_route({2, 3});
  builder.set_route({1, 4, 3});
  builder.set_route({0, 2});
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  ASSERT_EQ(insertion_order_path(t, 0, 3), (std::vector<Node>{0, 2, 3}));

  const SrgIndex index(t);
  SrgScratch scratch(index);
  const auto res = scratch.evaluate(std::vector<Node>{});
  EXPECT_EQ(res.arcs, 4u);
  const auto path = scratch.route_path(0, 3);
  EXPECT_EQ(std::vector<Node>(path.begin(), path.end()),
            (std::vector<Node>{0, 1, 3}));
  Rng rng(1);
  const auto stats = measure_delivery(scratch, 0, rng);
  // 0->1 (1), 0->2 (1), 0->3 via 1 (1 + 2), 1->3 (2), 2->3 (1).
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(stats.edge_hops_total, 8u);
  EXPECT_EQ(stats.max_edge_hops, 3u);
  run_differential(t, {}, "descending hand-built");
}

}  // namespace
}  // namespace ftr
