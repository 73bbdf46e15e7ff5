// Experiments E8/E9 in miniature: bipolar structural checks plus exhaustive
// verification of Theorem 20 (unidirectional, (4, t)) and Theorem 23
// (bidirectional, (5, t)).
#include "routing/bipolar.hpp"

#include <gtest/gtest.h>

#include "analysis/fault_sweep.hpp"
#include "analysis/two_trees.hpp"
#include "common/contracts.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

TwoTreesWitness witness_of(const Graph& g) {
  const auto w = find_two_trees(g);
  EXPECT_TRUE(w.has_value());
  return *w;
}

TEST(Bipolar, UnidirectionalBuildsOnCycle) {
  const auto gg = cycle_graph(14);  // t = 1
  const auto br = build_bipolar_unidirectional(gg.graph, 1, witness_of(gg.graph));
  EXPECT_EQ(br.m1.size(), 2u);
  EXPECT_EQ(br.m2.size(), 2u);
  EXPECT_NO_THROW(br.table.validate(gg.graph));
}

TEST(Bipolar, BidirectionalBuildsOnCycle) {
  const auto gg = cycle_graph(14);
  const auto br = build_bipolar_bidirectional(gg.graph, 1, witness_of(gg.graph));
  EXPECT_NO_THROW(br.table.validate(gg.graph));
}

TEST(Bipolar, RejectsInvalidWitness) {
  const auto gg = cycle_graph(14);
  EXPECT_THROW(build_bipolar_unidirectional(gg.graph, 1, {0, 2}),
               ContractViolation);
  EXPECT_THROW(build_bipolar_bidirectional(gg.graph, 1, {0, 4}),
               ContractViolation);
}

TEST(Bipolar, UnidirectionalEveryPairRoutedSomehow) {
  // After B-POL 5 every pair that got one direction has both.
  const auto gg = cycle_graph(14);
  const auto br = build_bipolar_unidirectional(gg.graph, 1, witness_of(gg.graph));
  br.table.for_each([&](Node x, Node y, const Path&) {
    EXPECT_TRUE(br.table.has_route(y, x))
        << "pair (" << x << "," << y << ") missing reverse";
  });
}

TEST(Bipolar, UnidirectionalMayUseAsymmetricPaths) {
  // The whole point of the unidirectional model: some pair routes by
  // different paths in the two directions.
  const auto gg = dodecahedron();  // t = 2
  const auto br = build_bipolar_unidirectional(gg.graph, 2, witness_of(gg.graph));
  bool found_asymmetric = false;
  br.table.for_each([&](Node x, Node y, const Path& p) {
    const PathView back = br.table.route(y, x);
    if (back != nullptr && !std::equal(p.rbegin(), p.rend(), back->begin(),
                                       back->end())) {
      found_asymmetric = true;
    }
  });
  EXPECT_TRUE(found_asymmetric);
}

// ---- Theorem 20: unidirectional bipolar is (4, t)-tolerant. ----

TEST(Bipolar, Theorem20CycleT1Exhaustive) {
  const auto gg = cycle_graph(14);
  const auto br = build_bipolar_unidirectional(gg.graph, 1, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 1), 4u);
}

TEST(Bipolar, Theorem20DodecahedronT2Exhaustive) {
  const auto gg = dodecahedron();  // kappa = 3, t = 2
  const auto br = build_bipolar_unidirectional(gg.graph, 2, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 2), 4u);
}

TEST(Bipolar, Theorem20DesarguesT2Exhaustive) {
  const auto gg = desargues_graph();
  const auto br = build_bipolar_unidirectional(gg.graph, 2, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 2), 4u);
}

// ---- Theorem 23: bidirectional bipolar is (5, t)-tolerant. ----

TEST(Bipolar, Theorem23CycleT1Exhaustive) {
  const auto gg = cycle_graph(14);
  const auto br = build_bipolar_bidirectional(gg.graph, 1, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 1), 5u);
}

TEST(Bipolar, Theorem23DodecahedronT2Exhaustive) {
  const auto gg = dodecahedron();
  const auto br = build_bipolar_bidirectional(gg.graph, 2, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 2), 5u);
}

TEST(Bipolar, Theorem23DesarguesT2Exhaustive) {
  const auto gg = desargues_graph();
  const auto br = build_bipolar_bidirectional(gg.graph, 2, witness_of(gg.graph));
  EXPECT_LE(lex_worst_diameter(br.table, 2), 5u);
}

TEST(Bipolar, BidirectionalSurvivingGraphSymmetric) {
  const auto gg = dodecahedron();
  const auto br = build_bipolar_bidirectional(gg.graph, 2, witness_of(gg.graph));
  EXPECT_TRUE(surviving_graph(br.table, {0, 13}).is_symmetric());
}

TEST(Bipolar, RootFaultsTolerated) {
  // The roots r1/r2 are structural anchors but may fail like anyone else.
  const auto gg = dodecahedron();
  const auto w = witness_of(gg.graph);
  const auto br = build_bipolar_unidirectional(gg.graph, 2, w);
  EXPECT_LE(surviving_diameter(br.table, {w.r1, w.r2}), 4u);
}

TEST(Bipolar, MemberFaultsTolerated) {
  const auto gg = dodecahedron();
  const auto w = witness_of(gg.graph);
  const auto br = build_bipolar_bidirectional(gg.graph, 2, w);
  const std::vector<Node> faults = {br.m1[0], br.m2[0]};
  EXPECT_LE(surviving_diameter(br.table, faults), 5u);
}

TEST(Bipolar, SparseRandomGraphEndToEnd) {
  // Theorem 25's regime is sparse random graphs; G(n,p) at two-trees
  // densities is almost never 2-connected, so we use random cubic graphs —
  // the sparse random model where two-trees and 3-connectivity coexist.
  Rng rng(31);
  for (int attempt = 0; attempt < 50; ++attempt) {
    const auto gg = random_regular(60, 3, rng);
    if (!is_connected(gg.graph)) continue;
    const auto w = find_two_trees(gg.graph);
    if (!w.has_value()) continue;
    const auto kappa = node_connectivity(gg.graph);
    if (kappa < 3) continue;
    const std::uint32_t t = kappa - 1;
    const auto br = build_bipolar_unidirectional(gg.graph, t, *w);
    const SrgIndex index(br.table);
    UnitSpec unit;
    unit.kind = UnitKind::kSweepSampled;
    unit.f = t;
    unit.seed = 77;
    unit.end = 150;  // samples
    EXPECT_LE(execute_unit(index, unit).worst_diameter, 4u);
    return;  // one successful sample suffices
  }
  GTEST_SKIP() << "no 3-connected two-trees cubic sample found";
}

}  // namespace
}  // namespace ftr
