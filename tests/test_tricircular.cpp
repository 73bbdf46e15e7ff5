// Experiments E4/E5 in miniature: tri-circular structural checks plus
// exhaustive verification of Theorem 13 ((4, t)) and Remark 14 ((5, t)).
#include "routing/tricircular.hpp"

#include <gtest/gtest.h>

#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

std::vector<Node> nset(const Graph& g, std::size_t want) {
  Rng rng(555);
  const auto m = neighborhood_set_of_size(g, want, rng, 32);
  EXPECT_GE(m.size(), want);
  return m;
}

TEST(TriCircular, FullVariantSizes) {
  const auto gg = cycle_graph(48);  // t = 1: K = 15, components of 5
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 15),
                                            TriCircularVariant::kFull);
  EXPECT_EQ(tr.m.size(), 15u);
  EXPECT_EQ(tr.component_size, 5u);
  EXPECT_EQ(tr.claimed_bound(), 4u);
  EXPECT_NO_THROW(tr.table.validate(gg.graph));
}

TEST(TriCircular, CompactVariantSizes) {
  const auto gg = cycle_graph(30);  // t = 1: K = 9, components of 3
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 9),
                                            TriCircularVariant::kCompact);
  EXPECT_EQ(tr.m.size(), 9u);
  EXPECT_EQ(tr.component_size, 3u);
  EXPECT_EQ(tr.claimed_bound(), 5u);
}

TEST(TriCircular, RejectsInsufficientSet) {
  const auto gg = cycle_graph(30);
  EXPECT_THROW(build_tricircular_routing(gg.graph, 1, nset(gg.graph, 9),
                                         TriCircularVariant::kFull),
               ContractViolation);
}

TEST(TriCircular, RejectsNonNeighborhoodSet) {
  const auto gg = cycle_graph(48);
  std::vector<Node> bad;
  for (Node i = 0; i < 15; ++i) bad.push_back(i);  // consecutive: adjacent
  EXPECT_THROW(build_tricircular_routing(gg.graph, 1, bad,
                                         TriCircularVariant::kFull),
               ContractViolation);
}

// ---- Theorem 13: (4, t). ----

TEST(TriCircular, Theorem13CycleT1Exhaustive) {
  const auto gg = cycle_graph(48);  // t = 1
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 15),
                                            TriCircularVariant::kFull);
  EXPECT_LE(lex_worst_diameter(tr.table, 1), 4u);
}

TEST(TriCircular, Theorem13TorusT3Adversarial) {
  // torus 13x13: t = 3, K = 27 members at distance >= 3 (169/5 > 27).
  const auto gg = torus_graph(13, 13);
  const auto tr = build_tricircular_routing(gg.graph, 3, nset(gg.graph, 27),
                                            TriCircularVariant::kFull);
  const FaultEvaluatorFactory make_eval = [&]() -> FaultEvaluator {
    return [&](const std::vector<Node>& f) {
      return surviving_diameter(tr.table, f);
    };
  };
  const auto sampled =
      sampled_worst_faults(169, 3, make_eval, /*seed=*/17, 0, /*samples=*/60);
  EXPECT_LE(sampled.d, 4u);
  const auto climbed = hillclimb_worst_faults(169, 3, make_eval, /*seed=*/18,
                                              0, /*restarts=*/3, 10);
  EXPECT_LE(climbed.d, 4u);
}

// ---- Remark 14: (5, t) with the compact concentrator. ----

TEST(TriCircular, Remark14CycleT1Exhaustive) {
  const auto gg = cycle_graph(30);
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 9),
                                            TriCircularVariant::kCompact);
  EXPECT_LE(lex_worst_diameter(tr.table, 1), 5u);
}

TEST(TriCircular, Remark14TorusT3Sampled) {
  const auto gg = torus_graph(10, 10);  // t = 3: compact K = 15, packing ~20
  const auto tr = build_tricircular_routing(gg.graph, 3, nset(gg.graph, 15),
                                            TriCircularVariant::kCompact);
  const FaultEvaluatorFactory make_eval = [&]() -> FaultEvaluator {
    return [&](const std::vector<Node>& f) {
      return surviving_diameter(tr.table, f);
    };
  };
  const auto res =
      sampled_worst_faults(100, 3, make_eval, /*seed=*/23, 0, /*samples=*/60);
  EXPECT_LE(res.d, 5u);
}

TEST(TriCircular, FullBeatsCompactOnBound) {
  // Ablation shape: the full variant's bound (4) is strictly stronger.
  const auto gg = cycle_graph(48);
  const auto full = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 15),
                                              TriCircularVariant::kFull);
  const auto compact = build_tricircular_routing(
      gg.graph, 1, nset(gg.graph, 9), TriCircularVariant::kCompact);
  EXPECT_LT(full.claimed_bound(), compact.claimed_bound());
  EXPECT_LE(lex_worst_diameter(full.table, 1), 4u);
  EXPECT_LE(lex_worst_diameter(compact.table, 1), 5u);
}

TEST(TriCircular, MemberFaultsStayBounded) {
  const auto gg = cycle_graph(48);
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 15),
                                            TriCircularVariant::kFull);
  for (Node m : tr.m) {
    EXPECT_LE(surviving_diameter(tr.table, {m}), 4u) << "fault at member " << m;
  }
}

}  // namespace
}  // namespace ftr
