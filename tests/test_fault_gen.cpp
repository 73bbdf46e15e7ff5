#include "fault/fault_gen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "routing/kernel.hpp"

namespace ftr {
namespace {

TEST(FaultGen, RandomSetsHaveRightShape) {
  Rng rng(1);
  const auto sets = random_fault_sets(20, 3, 50, rng);
  EXPECT_EQ(sets.size(), 50u);
  for (const auto& s : sets) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::set<Node>(s.begin(), s.end()).size(), 3u);
    for (Node v : s) EXPECT_LT(v, 20u);
  }
}

TEST(FaultGen, RandomSetsVary) {
  Rng rng(2);
  const auto sets = random_fault_sets(30, 2, 20, rng);
  std::set<std::vector<Node>> unique(sets.begin(), sets.end());
  EXPECT_GT(unique.size(), 10u);
}

TEST(FaultGen, ZeroFaults) {
  Rng rng(3);
  const auto sets = random_fault_sets(10, 0, 5, rng);
  for (const auto& s : sets) EXPECT_TRUE(s.empty());
}

TEST(FaultGen, OverdraftRejected) {
  Rng rng(4);
  EXPECT_THROW(random_fault_sets(3, 4, 1, rng), ContractViolation);
}

TEST(FaultGen, RouteLoadRankingPutsConcentratorFirst) {
  // Kernel routing funnels everything through the separating set, so its
  // members must rank at the top by route load.
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto ranked = nodes_by_route_load(kr.table);
  ASSERT_EQ(ranked.size(), gg.graph.num_nodes());
  const std::set<Node> m(kr.separating_set.begin(), kr.separating_set.end());
  std::size_t members_in_top = 0;
  for (std::size_t i = 0; i < 6; ++i) members_in_top += m.count(ranked[i]);
  EXPECT_GE(members_in_top, 2u);
}

TEST(FaultGen, RouteLoadRankingIsPermutation) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const auto ranked = nodes_by_route_load(kr.table);
  std::set<Node> seen(ranked.begin(), ranked.end());
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace ftr
