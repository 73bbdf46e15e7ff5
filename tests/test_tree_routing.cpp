#include "routing/tree_routing.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "graph/connectivity.hpp"

namespace ftr {
namespace {

TEST(TreeRouting, WidthAndEndpoints) {
  const auto gg = hypercube(3);
  const std::vector<Node> m = {3, 5, 6};  // Gamma(7)
  const auto tr = build_tree_routing(gg.graph, 0, m, 3);
  EXPECT_EQ(tr.source, 0u);
  EXPECT_EQ(tr.paths.size(), 3u);
  const auto eps = tr.endpoints();
  EXPECT_EQ(std::set<Node>(eps.begin(), eps.end()).size(), 3u);
  EXPECT_TRUE(validate_tree_routing(gg.graph, tr, m));
}

TEST(TreeRouting, DirectEdgeRuleApplied) {
  const auto gg = hypercube(3);
  // Source 1 is adjacent to 3 and 5 in Gamma(7) = {3,5,6}.
  const auto tr = build_tree_routing(gg.graph, 1, {3, 5, 6}, 3);
  int direct = 0;
  for (const auto& p : tr.paths) {
    if (gg.graph.has_edge(1, p.back())) {
      EXPECT_EQ(p.size(), 2u) << "adjacent target must use the direct edge";
      ++direct;
    }
  }
  EXPECT_EQ(direct, 2);
}

TEST(TreeRouting, ThrowsWhenWidthUnreachable) {
  const auto gg = cycle_graph(8);
  // Only two disjoint paths exist from 0 into any 2-separator of a cycle.
  EXPECT_THROW(build_tree_routing(gg.graph, 0, {2, 6}, 3), ContractViolation);
}

TEST(TreeRouting, WidthOneStillWorks) {
  const auto gg = cycle_graph(8);
  const auto tr = build_tree_routing(gg.graph, 0, {4}, 1);
  EXPECT_EQ(tr.paths.size(), 1u);
  EXPECT_EQ(tr.paths[0].back(), 4u);
}

TEST(TreeRouting, TrimsKeepingDirectEdgesFirst) {
  const auto gg = complete_bipartite(4, 4);
  // Source 0 adjacent to all of {4,5,6,7}; ask for width 2.
  const auto tr = build_tree_routing(gg.graph, 0, {4, 5, 6, 7}, 2);
  ASSERT_EQ(tr.paths.size(), 2u);
  for (const auto& p : tr.paths) EXPECT_EQ(p.size(), 2u);
}

TEST(TreeRouting, PathsStopAtFirstTargetOccurrence) {
  Rng rng(5);
  const auto gg = torus_graph(5, 5);
  const std::vector<Node> m = {7, 11, 13, 17, 23};
  const auto tr = build_tree_routing(gg.graph, 0, m, 4);
  const std::set<Node> m_set(m.begin(), m.end());
  for (const auto& p : tr.paths) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_FALSE(m_set.count(p[i]) && i > 0)
          << "path " << path_to_string(p) << " passes through M";
    }
  }
}

TEST(TreeRouting, KillingAllPathsNeedsWidthFaults) {
  // Lemma 1's counting argument, verified literally: any width-1 subset of
  // internal/endpoint nodes cannot break every path.
  const auto gg = hypercube(4);
  const std::vector<Node> m = {7, 11, 13, 14};  // Gamma(15)
  const std::uint32_t width = 4;
  const auto tr = build_tree_routing(gg.graph, 0, m, width);
  // Any single fault (not the source) leaves >= width-1 surviving paths.
  for (Node f = 1; f < gg.graph.num_nodes(); ++f) {
    std::size_t surviving = 0;
    for (const auto& p : tr.paths) {
      if (std::find(p.begin(), p.end(), f) == p.end()) ++surviving;
    }
    EXPECT_GE(surviving, width - 1) << "fault " << f;
  }
}

TEST(TreeRouting, ValidatorRejectsSharedInternalNode) {
  const auto gg = grid_graph(3, 3);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 1, 2}, {0, 3, 4, 1}};  // invalid & overlapping
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {2, 1}));
}

TEST(TreeRouting, ValidatorRejectsDuplicateEndpoint) {
  const auto gg = complete_graph(5);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 1}, {0, 2, 1}};  // both end at 1
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {1, 3}));
}

TEST(TreeRouting, ValidatorRejectsMissedDirectEdge) {
  const auto gg = complete_graph(5);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 2, 1}};  // 0-1 is an edge; must be the direct route
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {1}));
}

TEST(TreeRouting, ValidatorRejectsSourceInTargetSet) {
  const auto gg = complete_graph(4);
  TreeRouting tr;
  tr.source = 1;
  tr.paths = {{1, 2}};
  EXPECT_FALSE(validate_tree_routing(gg.graph, tr, {1, 2}));
}

TEST(TreeRouting, ValidatorRejectsTwoPathsThroughOneNode) {
  // 3x3 grid, nodes row-major; 0 is adjacent to neither 2 nor 8.
  const auto gg = grid_graph(3, 3);
  TreeRouting tr;
  tr.source = 0;
  tr.paths = {{0, 1, 2}, {0, 1, 4, 5, 8}};  // both pass through 1
  EXPECT_FALSE(validate_tree_routing(gg.graph, tr, {2, 8}));
  // The validator's marks start clean on every call: the disjoint version
  // passes right after the rejection.
  tr.paths = {{0, 1, 2}, {0, 3, 6, 7, 8}};
  EXPECT_TRUE(validate_tree_routing(gg.graph, tr, {2, 8}));
}

TEST(TreeRouting, ValidatorRejectsPathThroughTargetSet) {
  const auto gg = grid_graph(3, 3);
  TreeRouting tr;
  tr.source = 0;
  tr.paths = {{0, 1, 4, 5, 8}};  // 4 is in M: the path must stop there
  EXPECT_FALSE(validate_tree_routing(gg.graph, tr, {4, 8}));
  tr.paths = {{0, 1, 4}, {0, 3, 6, 7, 8}};
  EXPECT_TRUE(validate_tree_routing(gg.graph, tr, {4, 8}));
}

TEST(TreeRouting, InstallPopulatesTable) {
  const auto gg = hypercube(3);
  const std::vector<Node> m = {3, 5, 6};
  const auto tr = build_tree_routing(gg.graph, 0, m, 3);
  RouteTableBuilder builder(8, RoutingMode::kBidirectional);
  install_tree_routing(builder, tr);
  const RoutingTable table = std::move(builder).build();
  for (const auto& p : tr.paths) {
    EXPECT_TRUE(table.has_route(0, p.back()));
    EXPECT_TRUE(table.has_route(p.back(), 0));
  }
}

TEST(TreeRouting, WorksFromEveryNonMemberSource) {
  // Property sweep over all sources on a CCC: Lemma 2 promises existence.
  const auto gg = cube_connected_cycles(3);
  const auto cut = min_vertex_cut(gg.graph);
  ASSERT_EQ(cut.size(), 3u);
  const std::set<Node> cut_set(cut.begin(), cut.end());
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (cut_set.count(x)) continue;
    const auto tr = build_tree_routing(gg.graph, x, cut, 3);
    EXPECT_TRUE(validate_tree_routing(gg.graph, tr, cut)) << "source " << x;
  }
}

}  // namespace
}  // namespace ftr
