// Lemma-by-lemma reproduction: each construction is checked for the exact
// property its lemma promises, across exhaustively enumerated fault sets.
//   Lemma 7  -> CIRC 1 + CIRC 2 for the K = 2t+1 circular routing
//   Lemma 9  -> Property CIRC (radius 3) for the K = t+1 / t+2 routing
//   Lemma 12 -> Property T-CIRC (radius 2) for the tri-circular routing
//   Lemma 19 -> Properties B-POL 1..4 for the unidirectional bipolar
//   Lemma 22 -> Properties 2B-POL 1..3 for the bidirectional bipolar
#include "analysis/routing_properties.hpp"

#include <gtest/gtest.h>

#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "analysis/two_trees.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "lex_oracle.hpp"
#include "routing/bipolar.hpp"
#include "routing/circular.hpp"
#include "routing/tricircular.hpp"

namespace ftr {
namespace {

std::vector<Node> nset(const Graph& g, std::size_t want) {
  Rng rng(424242);
  const auto m = neighborhood_set_of_size(g, want, rng, 32);
  EXPECT_GE(m.size(), want);
  return m;
}

// Runs `check` on the surviving graph of every fault set of size <= f.
template <typename Check>
void for_all_fault_sets(const RoutingTable& table, std::size_t f,
                        const Check& check) {
  for (std::size_t size = 0; size <= f; ++size) {
    for_each_subset(table.num_nodes(), size,
                    [&](const std::vector<std::size_t>& subset) {
                      std::vector<Node> faults(subset.begin(), subset.end());
                      check(surviving_graph(table, faults), faults);
                      return true;
                    });
  }
}

TEST(RoutingProperties, Lemma7Circ1AndCirc2) {
  // K = 2t+1 circular routing satisfies CIRC 1 and CIRC 2 (paper Lemma 7).
  const auto gg = cycle_graph(20);  // t = 1, K = 3 = 2t+1
  const auto cr = build_circular_routing(gg.graph, 1, nset(gg.graph, 3), 3);
  for_all_fault_sets(cr.table, 1, [&](const Digraph& r,
                                      const std::vector<Node>& faults) {
    EXPECT_TRUE(property_circ1(r, cr.m)) << "CIRC1, faults "
                                         << path_to_string(faults);
    EXPECT_TRUE(property_circ2(r, cr.m)) << "CIRC2, faults "
                                         << path_to_string(faults);
  });
}

TEST(RoutingProperties, Lemma7OnCcc) {
  const auto gg = cube_connected_cycles(3);  // t = 2, K = 5 = 2t+1
  const auto m = nset(gg.graph, 5);
  if (m.size() < 5) GTEST_SKIP() << "CCC(3) packs fewer than 5 members";
  const auto cr = build_circular_routing(gg.graph, 2, m, 5);
  for_all_fault_sets(cr.table, 2, [&](const Digraph& r,
                                      const std::vector<Node>&) {
    EXPECT_TRUE(property_circ1(r, cr.m));
    EXPECT_TRUE(property_circ2(r, cr.m));
  });
}

TEST(RoutingProperties, Lemma9PropertyCirc) {
  // Minimal-K circular routing satisfies Property CIRC with radius 3.
  const auto gg = cube_connected_cycles(3);  // t = 2, K = 3
  const auto cr = build_circular_routing(gg.graph, 2, nset(gg.graph, 3));
  for_all_fault_sets(cr.table, 2, [&](const Digraph& r,
                                      const std::vector<Node>& faults) {
    EXPECT_TRUE(concentrator_relay_property(r, cr.m, 3))
        << "faults " << path_to_string(faults);
  });
}

TEST(RoutingProperties, Lemma12PropertyTCirc) {
  // Tri-circular routing satisfies Property T-CIRC with radius 2.
  const auto gg = cycle_graph(48);  // t = 1, K = 15
  const auto tr = build_tricircular_routing(gg.graph, 1, nset(gg.graph, 15),
                                            TriCircularVariant::kFull);
  for_all_fault_sets(tr.table, 1, [&](const Digraph& r,
                                      const std::vector<Node>& faults) {
    EXPECT_TRUE(concentrator_relay_property(r, tr.m, 2))
        << "faults " << path_to_string(faults);
  });
}

TEST(RoutingProperties, Lemma19BpolProperties) {
  const auto gg = dodecahedron();  // t = 2
  const auto w = find_two_trees(gg.graph);
  ASSERT_TRUE(w.has_value());
  const auto br = build_bipolar_unidirectional(gg.graph, 2, *w);
  for_all_fault_sets(br.table, 2, [&](const Digraph& r,
                                      const std::vector<Node>& faults) {
    const auto tag = path_to_string(faults);
    EXPECT_TRUE(property_bpol_into_side(r, br.m1)) << "B-POL1 " << tag;
    EXPECT_TRUE(property_bpol_into_side(r, br.m2)) << "B-POL2 " << tag;
    EXPECT_TRUE(property_bpol3(r, br.m1, br.m2)) << "B-POL3 " << tag;
    EXPECT_TRUE(property_bpol4(r, br.m1)) << "B-POL4/M1 " << tag;
    EXPECT_TRUE(property_bpol4(r, br.m2)) << "B-POL4/M2 " << tag;
  });
}

TEST(RoutingProperties, Lemma22TwoBpolProperties) {
  const auto gg = dodecahedron();
  const auto w = find_two_trees(gg.graph);
  ASSERT_TRUE(w.has_value());
  const auto br = build_bipolar_bidirectional(gg.graph, 2, *w);
  for_all_fault_sets(br.table, 2, [&](const Digraph& r,
                                      const std::vector<Node>& faults) {
    const auto tag = path_to_string(faults);
    // 2B-POL 1: every node outside M has a member neighbor (both ways —
    // the table is bidirectional so one direction suffices to check).
    std::vector<Node> m_all = br.m1;
    m_all.insert(m_all.end(), br.m2.begin(), br.m2.end());
    for (Node x : r.present_nodes()) {
      if (std::find(m_all.begin(), m_all.end(), x) != m_all.end()) continue;
      EXPECT_TRUE(has_surviving_arc_into(r, x, m_all)) << "2B-POL1 " << tag;
    }
    EXPECT_TRUE(property_bpol4(r, br.m1)) << "2B-POL2/M1 " << tag;
    EXPECT_TRUE(property_bpol4(r, br.m2)) << "2B-POL2/M2 " << tag;
    EXPECT_TRUE(property_2bpol3(r, br.m1, br.m2)) << "2B-POL3 " << tag;
  });
}

TEST(RoutingProperties, HelpersOnHandBuiltGraph) {
  Digraph r(5);
  r.add_arc(0, 1);
  r.add_arc(1, 2);
  r.add_arc(2, 0);
  EXPECT_TRUE(has_surviving_arc_into(r, 0, {1, 4}));
  EXPECT_FALSE(has_surviving_arc_into(r, 0, {2, 3}));
  EXPECT_TRUE(has_surviving_arc_from(r, 0, {2, 3}));
  EXPECT_FALSE(has_surviving_arc_from(r, 0, {1, 4}));
  EXPECT_TRUE(member_within_two(r, 0, 2));  // 0->1->2
  EXPECT_TRUE(member_within_two(r, 2, 1));  // 2->0->1
}

TEST(RoutingProperties, MemberWithinTwoExactSemantics) {
  Digraph r(4);
  r.add_arc(0, 1);
  r.add_arc(1, 2);
  r.add_arc(2, 3);
  EXPECT_TRUE(member_within_two(r, 0, 0));
  EXPECT_TRUE(member_within_two(r, 0, 1));
  EXPECT_TRUE(member_within_two(r, 0, 2));
  EXPECT_FALSE(member_within_two(r, 0, 3));  // distance 3
}

TEST(RoutingProperties, RelayPropertyFailsWithoutMembers) {
  Digraph r(3);
  r.add_arc(0, 1);
  r.add_arc(1, 0);
  r.add_arc(1, 2);
  r.add_arc(2, 1);
  // No members present -> property cannot hold (unless trivial graph).
  EXPECT_FALSE(concentrator_relay_property(r, {}, 3));
}

TEST(RoutingProperties, RelayPropertyTrivialGraphHolds) {
  Digraph r(1);
  EXPECT_TRUE(concentrator_relay_property(r, {}, 2));
}

}  // namespace
}  // namespace ftr
