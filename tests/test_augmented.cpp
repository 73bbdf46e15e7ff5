// Experiment E14 in miniature: the clique-augmented kernel of Section 6.
#include "routing/augmented.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/connectivity.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

TEST(Augmented, ConcentratorBecomesClique) {
  const auto gg = cube_connected_cycles(3);
  const auto ar = build_augmented_kernel(gg.graph, 2);
  for (std::size_t i = 0; i < ar.m.size(); ++i) {
    for (std::size_t j = i + 1; j < ar.m.size(); ++j) {
      EXPECT_TRUE(ar.augmented_graph.has_edge(ar.m[i], ar.m[j]));
    }
  }
}

TEST(Augmented, EdgeCostWithinPaperBound) {
  // With t = kappa-1 the concentrator is a minimum cut of size t+1, so at
  // most t(t+1)/2 edges are added.
  const GeneratedGraph cases[] = {cycle_graph(10), cube_connected_cycles(3),
                                  torus_graph(4, 4), petersen_graph()};
  for (const auto& gg : cases) {
    const std::uint32_t t = *gg.known_connectivity - 1;
    const auto ar = build_augmented_kernel(gg.graph, t);
    EXPECT_LE(ar.added_edges, ar.claimed_edge_bound()) << gg.name;
  }
}

TEST(Augmented, OriginalGraphUntouched) {
  const auto gg = cycle_graph(10);
  const std::size_t edges_before = gg.graph.num_edges();
  const auto ar = build_augmented_kernel(gg.graph, 1);
  EXPECT_EQ(gg.graph.num_edges(), edges_before);
  EXPECT_EQ(ar.augmented_graph.num_edges(), edges_before + ar.added_edges);
}

// ---- The (3, t) guarantee. ----

TEST(Augmented, ThreeToleranceCycleExhaustive) {
  const auto gg = cycle_graph(10);  // t = 1
  const auto ar = build_augmented_kernel(gg.graph, 1);
  EXPECT_LE(lex_worst_diameter(ar.table, 1), 3u);
}

TEST(Augmented, ThreeToleranceCccExhaustive) {
  const auto gg = cube_connected_cycles(3);  // t = 2
  const auto ar = build_augmented_kernel(gg.graph, 2);
  EXPECT_LE(lex_worst_diameter(ar.table, 2), 3u);
}

TEST(Augmented, ThreeToleranceTorusExhaustive) {
  const auto gg = torus_graph(4, 4);  // t = 3
  const auto ar = build_augmented_kernel(gg.graph, 3);
  EXPECT_LE(lex_worst_diameter(ar.table, 3), 3u);
}

TEST(Augmented, RoutingValidOnAugmentedGraphOnly) {
  const auto gg = cycle_graph(10);
  const auto ar = build_augmented_kernel(gg.graph, 1);
  EXPECT_NO_THROW(ar.table.validate(ar.augmented_graph));
  // The clique edges are not edges of the original cycle, so validating
  // against it must fail (the routing uses the added links).
  EXPECT_THROW(ar.table.validate(gg.graph), ContractViolation);
}

TEST(Augmented, AlreadyAdjacentConcentratorAddsFewerEdges) {
  // If the minimum cut happens to contain adjacent nodes the clique costs
  // less than the worst case; added_edges reflects reality.
  const auto gg = grid_graph(3, 3);  // cuts are typically adjacent-ish
  const auto ar = build_augmented_kernel(gg.graph, 1);
  EXPECT_LE(ar.added_edges, 1u);
}

// ---- Open-problem-2 probes: O(t)-edge wirings. ----

TEST(Augmented, CycleVariantEdgeBudget) {
  const auto gg = torus_graph(4, 4);  // t = 3, |M| = 4
  const auto ar = build_augmented_kernel(gg.graph, 3, std::nullopt,
                                         AugmentVariant::kCycle);
  EXPECT_LE(ar.added_edges, ar.claimed_edge_bound());
  EXPECT_EQ(ar.claimed_edge_bound(), 4u);  // t + 1
}

TEST(Augmented, StarVariantEdgeBudget) {
  const auto gg = torus_graph(4, 4);
  const auto ar = build_augmented_kernel(gg.graph, 3, std::nullopt,
                                         AugmentVariant::kStar);
  EXPECT_LE(ar.added_edges, ar.claimed_edge_bound());
  EXPECT_EQ(ar.claimed_edge_bound(), 3u);  // t
}

TEST(Augmented, CycleVariantMeasuredToleranceSmall) {
  // Not proven by the paper — measured. The cycle wiring keeps members
  // within |M|/2 hops of each other inside M, so the surviving diameter
  // stays a small constant on these graphs (worse than the clique's 3).
  const auto gg = cube_connected_cycles(3);  // t = 2
  const auto ar = build_augmented_kernel(gg.graph, 2, std::nullopt,
                                         AugmentVariant::kCycle);
  const auto worst = lex_worst_diameter(ar.table, 2);
  EXPECT_LE(worst, 5u);
  EXPECT_GE(worst, 3u);  // cannot beat the clique
}

TEST(Augmented, StarVariantHubIsSinglePointOfWeakness) {
  // With the hub faulty the star edges die; tolerance is still finite
  // (kernel tree routings carry the slack) but measurably worse than 3.
  const auto gg = cube_connected_cycles(3);
  const auto ar = build_augmented_kernel(gg.graph, 2, std::nullopt,
                                         AugmentVariant::kStar);
  const auto worst = lex_worst_diameter(ar.table, 2);
  EXPECT_LE(worst, 6u);
}

TEST(Augmented, VariantNamesStable) {
  EXPECT_STREQ(augment_variant_name(AugmentVariant::kClique), "clique");
  EXPECT_STREQ(augment_variant_name(AugmentVariant::kCycle), "cycle");
  EXPECT_STREQ(augment_variant_name(AugmentVariant::kStar), "star");
}

}  // namespace
}  // namespace ftr
