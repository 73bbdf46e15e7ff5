#include "graph/maxflow.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "flow_oracle.hpp"

namespace ftr {
namespace {

TEST(MaxFlow, SingleEdge) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 5);
  net.add_edge(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
}

TEST(MaxFlow, ParallelAdds) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 2);
  net.add_edge(1, 3, 2);
  net.add_edge(0, 2, 3);
  net.add_edge(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(MaxFlow, ClassicCLRSExample) {
  // The textbook 6-node example with max flow 23.
  FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_EQ(net.max_flow(0, 5), 23);
}

TEST(MaxFlow, NoPathIsZero) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 4);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, RespectsLimit) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 10);
  EXPECT_EQ(net.max_flow(0, 1, 4), 4);
  // Continuing accumulates the remaining capacity.
  EXPECT_EQ(net.max_flow(0, 1), 6);
}

TEST(MaxFlow, FlowOnAndResidual) {
  FlowNetwork net(3);
  const auto e01 = net.add_edge(0, 1, 2);
  const auto e12 = net.add_edge(1, 2, 1);
  net.max_flow(0, 2);
  EXPECT_EQ(net.flow_on(e01), 1);
  EXPECT_EQ(net.residual(e01), 1);
  EXPECT_EQ(net.flow_on(e12), 1);
  EXPECT_EQ(net.residual(e12), 0);
}

TEST(MaxFlow, ResidualReachableGivesMinCutSide) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 10);
  net.add_edge(1, 2, 1);  // bottleneck
  net.add_edge(2, 3, 10);
  net.max_flow(0, 3);
  const auto reach = net.residual_reachable(0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(MaxFlow, ConsumeUnitWalksFlowDown) {
  FlowNetwork net(2);
  const auto e = net.add_edge(0, 1, 2);
  net.max_flow(0, 1);
  EXPECT_EQ(net.flow_on(e), 2);
  net.consume_unit(e);
  EXPECT_EQ(net.flow_on(e), 1);
  net.consume_unit(e);
  EXPECT_EQ(net.flow_on(e), 0);
  EXPECT_THROW(net.consume_unit(e), ContractViolation);
}

TEST(MaxFlow, ZeroCapacityEdgeCarriesNothing) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 0);
  EXPECT_EQ(net.max_flow(0, 1), 0);
}

TEST(MaxFlow, SourceEqualsSinkRejected) {
  FlowNetwork net(2);
  EXPECT_THROW(net.max_flow(1, 1), ContractViolation);
}

TEST(MaxFlow, BipartiteMatchingShape) {
  // 3x3 bipartite unit matching via flow: perfect matching of size 3.
  FlowNetwork net(8);  // 0 = s, 1..3 left, 4..6 right, 7 = t
  for (std::uint32_t l = 1; l <= 3; ++l) net.add_edge(0, l, 1);
  for (std::uint32_t r = 4; r <= 6; ++r) net.add_edge(r, 7, 1);
  net.add_edge(1, 4, 1);
  net.add_edge(1, 5, 1);
  net.add_edge(2, 5, 1);
  net.add_edge(3, 6, 1);
  EXPECT_EQ(net.max_flow(0, 7), 3);
}

TEST(MaxFlow, OutEdgesKeepAddOrder) {
  FlowNetwork net(3);
  const auto a = net.add_edge(0, 1, 1);
  const auto b = net.add_edge(2, 0, 1);
  const auto c = net.add_edge(0, 2, 1);
  const auto e0 = net.out_edges(0);
  ASSERT_EQ(e0.size(), 3u);
  EXPECT_EQ(e0[0], a);
  EXPECT_EQ(e0[1], b ^ 1);  // the reverse edge of 2 -> 0
  EXPECT_EQ(e0[2], c);
  // An edge added after a query joins the end of its tail's list.
  net.max_flow(0, 2);
  const auto d = net.add_edge(0, 1, 1);
  ASSERT_EQ(net.out_edges(0).size(), 4u);
  EXPECT_EQ(net.out_edges(0)[3], d);
  EXPECT_EQ(net.out_edges(1).size(), 2u);
}

TEST(MaxFlow, ResetClearsEdgesAndFlow) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 3);
  EXPECT_EQ(net.max_flow(0, 1), 3);
  net.reset(3);
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_TRUE(net.out_edges(0).empty());
  EXPECT_EQ(net.max_flow(0, 2), 0);
  const auto e = net.add_edge(0, 2, 2);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  EXPECT_THROW(net.add_edge(0, 3, 1), ContractViolation);
}

// One network reset between unrelated queries must answer each exactly as
// a fresh network and as the original engine (tests/flow_oracle.hpp) do:
// the same flow value, the same flow on every edge, the same cut side.
// Random sparse multigraphs with small capacities (some zero) leave many
// nodes at or past the sink's BFS level, which is what the level cutoff
// skips.
TEST(MaxFlow, ReusedNetworkMatchesFreshOneAndTheOracle) {
  Rng rng(31);
  FlowNetwork reused;
  for (int q = 0; q < 200; ++q) {
    const auto n = static_cast<std::uint32_t>(4 + rng.below(40));
    const std::size_t m = n + rng.below(4 * n);
    const auto s = static_cast<std::uint32_t>(rng.below(n));
    const auto t = static_cast<std::uint32_t>((s + 1 + rng.below(n - 1)) % n);
    const std::int64_t limit =
        rng.below(3) == 0 ? static_cast<std::int64_t>(rng.below(5))
                          : FlowNetwork::kNoLimit;
    reused.reset(n);
    FlowNetwork fresh(n);
    flow_oracle::FlowNetwork oracle(n);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<std::uint32_t>(rng.below(n));
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      const auto cap = static_cast<std::int64_t>(rng.below(4));
      ids.push_back(reused.add_edge(u, v, cap));
      EXPECT_EQ(fresh.add_edge(u, v, cap), ids.back());
      EXPECT_EQ(oracle.add_edge(u, v, cap), ids.back());
    }
    const auto want = oracle.max_flow(s, t, limit);
    ASSERT_EQ(reused.max_flow(s, t, limit), want) << "query " << q;
    ASSERT_EQ(fresh.max_flow(s, t, limit), want) << "query " << q;
    for (const std::size_t id : ids) {
      ASSERT_EQ(reused.flow_on(id), oracle.flow_on(id)) << "query " << q;
      ASSERT_EQ(fresh.flow_on(id), oracle.flow_on(id)) << "query " << q;
    }
    for (std::uint32_t u = 0; u < n; ++u) {
      const auto got = reused.out_edges(u);
      const auto& ref = oracle.out_edges(u);
      ASSERT_EQ(std::vector<std::size_t>(got.begin(), got.end()), ref);
    }
    EXPECT_EQ(reused.residual_reachable(s), oracle.residual_reachable(s));
    EXPECT_EQ(fresh.residual_reachable(s), oracle.residual_reachable(s));
  }
}

}  // namespace
}  // namespace ftr
