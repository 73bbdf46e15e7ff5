#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "flow_oracle.hpp"

namespace ftr {
namespace {

TEST(LocalConnectivity, CycleHasTwoDisjointPaths) {
  const auto gg = cycle_graph(6);
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 3), 2u);
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 1), 2u);  // edge + long way
}

TEST(LocalConnectivity, CompleteGraph) {
  const auto gg = complete_graph(5);
  // Direct edge plus 3 two-hop paths through the other nodes.
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 4), 4u);
}

TEST(LocalConnectivity, CutVertexLimits) {
  // Two triangles sharing node 2: local connectivity across the waist is 1.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(2, 4);
  EXPECT_EQ(local_node_connectivity(b.build(), 0, 4), 1u);
}

TEST(NodeConnectivity, KnownFamilies) {
  EXPECT_EQ(node_connectivity(complete_graph(5).graph), 4u);
  EXPECT_EQ(node_connectivity(cycle_graph(7).graph), 2u);
  EXPECT_EQ(node_connectivity(path_graph(5).graph), 1u);
  EXPECT_EQ(node_connectivity(star_graph(4).graph), 1u);
  EXPECT_EQ(node_connectivity(complete_bipartite(3, 5).graph), 3u);
  EXPECT_EQ(node_connectivity(petersen_graph().graph), 3u);
  EXPECT_EQ(node_connectivity(grid_graph(3, 4).graph), 2u);
  EXPECT_EQ(node_connectivity(torus_graph(4, 4).graph), 4u);
}

TEST(NodeConnectivity, HypercubesMatchDimension) {
  for (std::size_t d = 1; d <= 5; ++d) {
    EXPECT_EQ(node_connectivity(hypercube(d).graph), d) << "Q" << d;
  }
}

TEST(NodeConnectivity, CccIsThree) {
  EXPECT_EQ(node_connectivity(cube_connected_cycles(3).graph), 3u);
}

TEST(NodeConnectivity, WrappedButterflyIsFour) {
  EXPECT_EQ(node_connectivity(wrapped_butterfly(3).graph), 4u);
}

TEST(NodeConnectivity, DisconnectedIsZero) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  EXPECT_EQ(node_connectivity(b.build()), 0u);
}

TEST(NodeConnectivity, GeneratorMetadataAgrees) {
  // Every generator that claims a connectivity must be telling the truth
  // (checked on small instances; large ones are the same family).
  const GeneratedGraph cases[] = {
      complete_graph(6),       cycle_graph(9),     complete_bipartite(2, 4),
      grid_graph(3, 3),        torus_graph(3, 5),  petersen_graph(),
      hypercube(4),            butterfly(3),       cube_connected_cycles(4),
      wrapped_butterfly(3),    star_graph(6),      path_graph(8),
  };
  for (const auto& gg : cases) {
    ASSERT_TRUE(gg.known_connectivity.has_value()) << gg.name;
    EXPECT_EQ(node_connectivity(gg.graph), *gg.known_connectivity) << gg.name;
  }
}

TEST(MinVertexCut, SizeEqualsConnectivityAndSeparates) {
  const GeneratedGraph cases[] = {
      cycle_graph(8),
      grid_graph(3, 4),
      torus_graph(3, 4),
      hypercube(3),
      petersen_graph(),
      cube_connected_cycles(3),
  };
  for (const auto& gg : cases) {
    const auto cut = min_vertex_cut(gg.graph);
    EXPECT_EQ(cut.size(), node_connectivity(gg.graph)) << gg.name;
    EXPECT_TRUE(is_separating_set(gg.graph, cut)) << gg.name;
  }
}

TEST(MinVertexCut, CompleteGraphRejected) {
  EXPECT_THROW(min_vertex_cut(complete_graph(4).graph), ContractViolation);
}

TEST(MinVertexCutBetween, SeparatesChosenPair) {
  const auto gg = grid_graph(4, 4);
  const auto cut = min_vertex_cut_between(gg.graph, 0, 15);
  EXPECT_EQ(cut.size(), 2u);
  const Graph reduced = gg.graph.without_nodes(cut);
  EXPECT_EQ(bfs_distances(reduced, 0)[15], kUnreachable);
}

TEST(MinVertexCutBetween, AdjacentRejected) {
  const auto gg = cycle_graph(5);
  EXPECT_THROW(min_vertex_cut_between(gg.graph, 0, 1), ContractViolation);
}

TEST(DisjointPaths, CountMatchesMenger) {
  const auto gg = hypercube(3);
  const auto paths = disjoint_paths(gg.graph, 0, 7);
  EXPECT_EQ(paths.size(), 3u);
}

TEST(DisjointPaths, InternallyDisjointAndValid) {
  const auto gg = hypercube(4);
  const auto paths = disjoint_paths(gg.graph, 0, 15);
  ASSERT_EQ(paths.size(), 4u);
  std::set<Node> internal_seen;
  for (const auto& p : paths) {
    EXPECT_TRUE(gg.graph.is_simple_path(p));
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 15u);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(internal_seen.insert(p[i]).second)
          << "node " << p[i] << " reused";
    }
  }
}

TEST(DisjointPaths, DirectEdgeIncluded) {
  const auto gg = cycle_graph(6);
  const auto paths = disjoint_paths(gg.graph, 0, 1);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (Path{0, 1}));  // the direct edge comes first
  EXPECT_EQ(paths[1].size(), 6u);     // the long way around
}

TEST(DisjointPaths, WantLimitsCount) {
  const auto gg = complete_graph(6);
  EXPECT_EQ(disjoint_paths(gg.graph, 0, 5, 2).size(), 2u);
  EXPECT_EQ(disjoint_paths(gg.graph, 0, 5, 0).size(), 0u);
}

TEST(DisjointPathsToSet, StopsAtFirstOccurrence) {
  const auto gg = hypercube(3);
  // Separate node 7 by its neighborhood {3, 5, 6}.
  const std::vector<Node> m = {3, 5, 6};
  const auto paths = disjoint_paths_to_set(gg.graph, 0, m);
  ASSERT_EQ(paths.size(), 3u);
  std::set<Node> endpoints;
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0u);
    endpoints.insert(p.back());
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_EQ(std::count(m.begin(), m.end(), p[i]), 0)
          << "path passes through target " << p[i];
    }
  }
  EXPECT_EQ(endpoints.size(), 3u);
}

TEST(DisjointPathsToSet, DirectEdgesSeededFirst) {
  const auto gg = complete_bipartite(3, 3);
  // Source 0 (left) is adjacent to all of the right side {3,4,5}.
  const auto paths = disjoint_paths_to_set(gg.graph, 0, {3, 4, 5});
  ASSERT_EQ(paths.size(), 3u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 2u);
}

TEST(DisjointPathsToSet, AvoidExcludesNodes) {
  const auto gg = cycle_graph(6);
  // From 0 to {3}: normally two routes; avoiding 1 leaves the ccw one only
  // ... but 3 can then absorb just one path.
  const auto paths = disjoint_paths_to_set(gg.graph, 0, {3}, {1});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (Path{0, 5, 4, 3}));
}

TEST(DisjointPathsToSet, SourceInSetRejected) {
  const auto gg = cycle_graph(5);
  EXPECT_THROW(disjoint_paths_to_set(gg.graph, 0, {0, 2}), ContractViolation);
}

TEST(DisjointPathsToSet, InternallyDisjoint) {
  const auto gg = torus_graph(4, 4);
  const std::vector<Node> m = {5, 10, 15, 3};
  const auto paths = disjoint_paths_to_set(gg.graph, 0, m);
  ASSERT_GE(paths.size(), 4u);
  std::unordered_set<Node> seen;  // all non-source nodes must be unique
  for (const auto& p : paths) {
    for (std::size_t i = 1; i < p.size(); ++i) {
      EXPECT_TRUE(seen.insert(p[i]).second);
    }
  }
}

TEST(IsSeparatingSet, Basics) {
  const auto gg = path_graph(5);
  EXPECT_TRUE(is_separating_set(gg.graph, {2}));
  EXPECT_FALSE(is_separating_set(gg.graph, {0}));  // leaves remainder whole
  EXPECT_FALSE(is_separating_set(gg.graph, {}));
  const auto cyc = cycle_graph(6);
  EXPECT_FALSE(is_separating_set(cyc.graph, {0}));
  EXPECT_TRUE(is_separating_set(cyc.graph, {0, 3}));
}

TEST(NodeConnectivity, RandomGraphsCrossCheckedAgainstCutSize) {
  // Property sweep: kappa from Esfahanian-Hakimi equals the size of the
  // extracted minimum cut, and removing that cut disconnects the graph.
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const auto gg = gnp_connected(24, 0.25, rng);
    const auto k = node_connectivity(gg.graph);
    if (k == 0) continue;
    if (gg.graph.num_edges() == 24 * 23 / 2) continue;  // complete: no cut
    const auto cut = min_vertex_cut(gg.graph);
    EXPECT_EQ(cut.size(), k);
    EXPECT_TRUE(is_separating_set(gg.graph, cut));
  }
}

// Differential check against tests/flow_oracle.hpp: the reusable CSR
// network, the sink-level BFS cutoff, the limited connectivity flows and
// the stamp marks must reproduce the original engine's outputs exactly —
// the same paths in the same order, the same cuts, the same counts.
std::vector<GeneratedGraph> differential_graphs() {
  std::vector<GeneratedGraph> out = {
      torus_graph(5, 6),        hypercube(4),         cube_connected_cycles(3),
      petersen_graph(),         dodecahedron(),       wrapped_butterfly(3),
      de_bruijn(4),             cycle_graph(12),      grid_graph(3, 5),
      complete_bipartite(3, 5), star_graph(5),        complete_graph(5),
  };
  Rng rng(77);
  for (int i = 0; i < 4; ++i) {
    out.push_back(gnp_connected(18 + 4 * i, 0.2, rng));
  }
  for (int i = 0; i < 3; ++i) out.push_back(random_regular(20, 3 + i, rng));
  return out;
}

std::vector<Node> random_subset(Rng& rng, std::size_t n, double p, Node skip) {
  std::vector<Node> out;
  for (Node v = 0; v < n; ++v) {
    if (v != skip && rng.uniform() < p) out.push_back(v);
  }
  return out;
}

TEST(MengerDifferential, MatchesOriginalEngineOnEveryQuery) {
  Rng rng(2025);
  for (const auto& gg : differential_graphs()) {
    const Graph& g = gg.graph;
    const auto n = static_cast<Node>(g.num_nodes());
    SCOPED_TRACE(gg.name);
    EXPECT_EQ(node_connectivity(g), flow_oracle::node_connectivity(g));
    for (int q = 0; q < 24; ++q) {
      const Node x = static_cast<Node>(rng.below(n));
      const Node y = static_cast<Node>((x + 1 + rng.below(n - 1)) % n);
      SCOPED_TRACE(::testing::Message() << "x=" << x << " y=" << y);
      EXPECT_EQ(local_node_connectivity(g, x, y),
                flow_oracle::local_node_connectivity(g, x, y));
      EXPECT_EQ(disjoint_paths(g, x, y), flow_oracle::disjoint_paths(g, x, y));
      const auto want = static_cast<std::uint32_t>(rng.below(4));
      EXPECT_EQ(disjoint_paths(g, x, y, want),
                flow_oracle::disjoint_paths(g, x, y, want));
      if (!g.has_edge(x, y)) {
        EXPECT_EQ(min_vertex_cut_between(g, x, y),
                  flow_oracle::min_vertex_cut_between(g, x, y));
      }
      // Target sets: a neighbor shell (the shape Lemma 2's tree routings
      // use) and a random subset; `avoid` drawn independently, so it may
      // overlap the targets and x's neighbors.
      std::vector<Node> shell;
      for (Node v : g.neighbors(y)) {
        if (v != x) shell.push_back(v);
      }
      const std::vector<Node> targets[] = {shell,
                                           random_subset(rng, n, 0.3, x)};
      for (const auto& m : targets) {
        EXPECT_EQ(disjoint_paths_to_set(g, x, m),
                  flow_oracle::disjoint_paths_to_set(g, x, m));
        const auto avoid = random_subset(rng, n, 0.15, x);
        EXPECT_EQ(disjoint_paths_to_set(g, x, m, avoid),
                  flow_oracle::disjoint_paths_to_set(g, x, m, avoid));
      }
    }
  }
}

}  // namespace
}  // namespace ftr
