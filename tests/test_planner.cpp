#include "core/planner.hpp"

#include <gtest/gtest.h>

#include "analysis/neighborhood.hpp"
#include "analysis/two_trees.hpp"
#include "common/contracts.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "routing/bipolar.hpp"
#include "routing/multirouting.hpp"
#include "routing/tricircular.hpp"

namespace ftr {
namespace {

GraphProfile profile_of(const GeneratedGraph& gg, std::uint64_t seed = 9) {
  Rng rng(seed);
  return profile_graph(gg.graph, gg.known_connectivity, rng,
                       /*compute_diameter=*/false);
}

TEST(Planner, PrefersTriCircularWhenAvailable) {
  const auto gg = cycle_graph(60);  // t = 1, plenty of members
  const auto plan = plan_routing(profile_of(gg));
  EXPECT_EQ(plan.construction, Construction::kTriCircularFull);
  EXPECT_EQ(plan.guaranteed_diameter, 4u);
  EXPECT_EQ(plan.tolerated_faults, 1u);
}

TEST(Planner, FallsBackToBipolarOnTwoTrees) {
  // Dodecahedron: t = 2 needs K = 21 > n/... no tri-circular, but the
  // two-trees property holds.
  const auto gg = dodecahedron();
  const auto plan = plan_routing(profile_of(gg));
  EXPECT_EQ(plan.construction, Construction::kBipolarUnidirectional);
  EXPECT_EQ(plan.guaranteed_diameter, 4u);
}

TEST(Planner, TorusGetsCircularFamily) {
  // Torus has no two-trees; small tori lack 6t+9 members but have t+2.
  const auto gg = torus_graph(6, 6);  // t = 3: full needs 27, compact 15
  const auto plan = plan_routing(profile_of(gg));
  EXPECT_TRUE(plan.construction == Construction::kCircular ||
              plan.construction == Construction::kTriCircularCompact);
  EXPECT_LE(plan.guaranteed_diameter, 6u);
}

TEST(Planner, HypercubeFallsBackToKernel) {
  // Q4: girth 4 kills two-trees; K = 6t+9 = 27 > n/(d^2+1) ~ 1.
  const auto gg = hypercube(4);
  const auto plan = plan_routing(profile_of(gg));
  EXPECT_EQ(plan.construction, Construction::kKernel);
  EXPECT_EQ(plan.guaranteed_diameter, std::max(2u * 3u, 4u));
}

TEST(Planner, CompleteGraphRejected) {
  const auto gg = complete_graph(5);
  EXPECT_THROW(plan_routing(profile_of(gg)), ContractViolation);
}

TEST(Planner, RationaleNamesTheTheorem) {
  const auto gg = cycle_graph(60);
  const auto plan = plan_routing(profile_of(gg));
  EXPECT_NE(plan.rationale.find("Theorem 13"), std::string::npos);
}

TEST(Planner, BuildPlannedRoutingEndToEnd) {
  Rng rng(4);
  const auto gg = cube_connected_cycles(3);
  const auto planned =
      build_planned_routing(gg.graph, gg.known_connectivity, rng);
  EXPECT_NO_THROW(planned.table.validate(gg.graph));
  // The built routing honors its own guarantee on a few fault sets.
  const std::vector<std::vector<Node>> fault_sets = {{}, {0}, {3, 17}};
  for (const auto& faults : fault_sets) {
    if (faults.size() > planned.plan.tolerated_faults) continue;
    EXPECT_LE(surviving_diameter(planned.table, faults),
              planned.plan.guaranteed_diameter);
  }
}

TEST(Planner, BuildMatchesPlanChoice) {
  Rng rng(5);
  const auto gg = cycle_graph(60);
  const auto profile = profile_of(gg);
  const auto plan = plan_routing(profile);
  const auto planned = build_planned_routing(gg.graph, profile, rng);
  EXPECT_EQ(planned.plan.construction, plan.construction);
  if (plan.construction != Construction::kBipolarUnidirectional &&
      plan.construction != Construction::kBipolarBidirectional) {
    EXPECT_FALSE(planned.concentrator.empty());
  }
}

TEST(Planner, ConstructionNamesAreStable) {
  EXPECT_STREQ(construction_name(Construction::kKernel), "kernel");
  EXPECT_STREQ(construction_name(Construction::kCircular), "circular");
  EXPECT_STREQ(construction_name(Construction::kTriCircularFull),
               "tri-circular (full)");
}

// ---- Pinned tables. ---------------------------------------------------------
// FNV-1a over every pair's (x, y) followed by its routes' nodes, in the
// table's pair-major order (for one route per pair: every (x, y, route
// nodes) in insertion order). The expected
// values were recorded with the planner as of commit 4f1b5a5, before the
// Menger engine moved to a reusable CSR network with a sink-level BFS cutoff
// and stamp marks; that rewrite promises byte-identical tables, and so must
// any later change to the flow engine, the tree routings or the planner.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t table_hash(const RoutingTable& table) {
  Fnv1a f;
  bool first = true;
  Node px = 0;
  Node py = 0;
  table.for_each_view([&](Node x, Node y, PathView p) {
    if (first || x != px || y != py) {  // the pair's first route
      f.add(x);
      f.add(y);
    }
    first = false;
    px = x;
    py = y;
    for (Node v : p) f.add(v);
  });
  return f.h;
}

struct PinnedTable {
  const char* name;
  GeneratedGraph (*make)();
  std::uint64_t hash_seed1;
  std::uint64_t hash_seed42;
};

TEST(Planner, PlannedTablesArePinned) {
  const PinnedTable cases[] = {
      {"torus(8,8)", [] { return torus_graph(8, 8); },
       0x58ce7c16368fc905ull, 0x58ce7c16368fc905ull},
      {"torus(10,10)", [] { return torus_graph(10, 10); },
       0x0fd3d73c65cf1205ull, 0x1ded9e4bed224965ull},
      {"torus(12,12)", [] { return torus_graph(12, 12); },
       0x25b1561bf3985605ull, 0x25b1561bf3985605ull},
      {"Q(6)", [] { return hypercube(6); },
       0x23bccef348f64b35ull, 0x23bccef348f64b35ull},
      {"Q(7)", [] { return hypercube(7); },
       0xb278b0626348f635ull, 0xb278b0626348f635ull},
      {"CCC(4)", [] { return cube_connected_cycles(4); },
       0x9485330158f38245ull, 0x65cc5907992cdb55ull},
      {"dodecahedron", [] { return dodecahedron(); },
       0xb32263b50b4e4ca1ull, 0xb32263b50b4e4ca1ull},
      {"Petersen", [] { return petersen_graph(); },
       0xed730a1c7b9796e5ull, 0xed730a1c7b9796e5ull},
      {"WBF(3)", [] { return wrapped_butterfly(3); },
       0xb601ca63de164df5ull, 0xb601ca63de164df5ull},
      {"deBruijn(5)", [] { return de_bruijn(5); },
       0x8f6879204f7f2a65ull, 0x8f6879204f7f2a65ull},
      {"torus(7,7)", [] { return torus_graph(7, 7); },
       0xb2143aebba1bf145ull, 0xb2143aebba1bf145ull},
      {"C(12)", [] { return cycle_graph(12); },
       0xde588b6c4d9c802dull, 0xde588b6c4d9c802dull},
  };
  for (const auto& c : cases) {
    const auto gg = c.make();
    const std::uint64_t want[] = {c.hash_seed1, c.hash_seed42};
    const std::uint64_t seeds[] = {1, 42};
    for (int i = 0; i < 2; ++i) {
      Rng rng(seeds[i]);
      const auto planned = build_planned_routing(gg.graph, std::nullopt, rng);
      EXPECT_EQ(table_hash(planned.table), want[i])
          << c.name << " seed " << seeds[i];
    }
  }
}

TEST(Planner, DirectConstructionTablesArePinned) {
  {
    const auto gg = cycle_graph(48);  // t = 1: K = 15
    Rng rng(555);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    const auto tr = build_tricircular_routing(gg.graph, 1, m,
                                              TriCircularVariant::kFull);
    EXPECT_EQ(table_hash(tr.table), 0xf50995f80d7094a5ull);
  }
  {
    const auto gg = dodecahedron();  // t = 2
    const auto w = find_two_trees(gg.graph);
    ASSERT_TRUE(w.has_value());
    const auto br = build_bipolar_bidirectional(gg.graph, 2, *w);
    EXPECT_EQ(table_hash(br.table), 0x8553d4f969b39335ull);
  }
  {
    const auto gg = petersen_graph();  // t = 2
    const auto table = build_full_multirouting(gg.graph, 2);
    EXPECT_EQ(table_hash(table), 0xb1aa97380b353275ull);
  }
  {
    const auto gg = cube_connected_cycles(3);  // t = 2
    const auto mr = build_kernel_multirouting(gg.graph, 2);
    EXPECT_EQ(table_hash(mr.table), 0xcde688a79a589ba5ull);
  }
}

}  // namespace
}  // namespace ftr
