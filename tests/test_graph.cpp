#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"

namespace ftr {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return b.build();
}

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphBuilder, AddEdgeBasics) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_TRUE(b.has_edge(0, 1));
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, DuplicateEdgeIgnored) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));
  EXPECT_EQ(b.build().num_edges(), 1u);
}

TEST(GraphBuilder, SelfLoopRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), ContractViolation);
  EXPECT_THROW(b.add_edge(5, 0), ContractViolation);
}

TEST(GraphBuilder, SeededFromExistingGraph) {
  const Graph g = triangle();
  GraphBuilder b(g);
  EXPECT_EQ(b.num_edges(), 3u);
  EXPECT_FALSE(b.add_edge(0, 1));  // already present
  // An unchanged rebuild reproduces the same CSR structure.
  EXPECT_EQ(b.build(), g);
}

TEST(Graph, NeighborsSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, DegreeTracking) {
  Graph g = triangle();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, EdgesListSortedAndCanonical) {
  GraphBuilder b(4);
  b.add_edge(3, 1);
  b.add_edge(2, 0);
  const auto edges = b.build().edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(Graph, ForEachEdgeMatchesEdges) {
  const Graph g = triangle();
  std::vector<std::pair<Node, Node>> streamed;
  g.for_each_edge([&](Node u, Node v) { streamed.emplace_back(u, v); });
  EXPECT_EQ(streamed, g.edges());
}

TEST(Graph, WithoutNodesPreservesIds) {
  Graph g = triangle();
  const Graph h = g.without_nodes({1});
  EXPECT_EQ(h.num_nodes(), 3u);  // ids preserved, node 1 isolated
  EXPECT_EQ(h.num_edges(), 1u);
  EXPECT_TRUE(h.has_edge(0, 2));
  EXPECT_FALSE(h.has_edge(0, 1));
  EXPECT_EQ(h.degree(1), 0u);
}

TEST(Graph, WithoutNodesEmptySet) {
  Graph g = triangle();
  EXPECT_EQ(g.without_nodes({}), g);
}

TEST(Graph, WithoutNodesOutOfRange) {
  Graph g = triangle();
  EXPECT_THROW(g.without_nodes({7}), ContractViolation);
}

TEST(Graph, IsSimplePathAcceptsValid) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_TRUE(g.is_simple_path({0, 1, 2, 3}));
  EXPECT_TRUE(g.is_simple_path({2, 1, 0}));
  EXPECT_TRUE(g.is_simple_path({1}));  // single node
}

TEST(Graph, IsSimplePathRejectsInvalid) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_FALSE(g.is_simple_path(Path{}));      // empty
  EXPECT_FALSE(g.is_simple_path(Path{0, 2}));  // non-edge
  EXPECT_FALSE(g.is_simple_path({0, 1, 0}));   // repeated node
  EXPECT_FALSE(g.is_simple_path({0, 1, 7}));   // out of range
}

TEST(Graph, EqualityIsStructural) {
  Graph a = triangle();
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 1);  // duplicate, no change
  EXPECT_EQ(a, b.build());
}

TEST(PathToString, Formats) {
  EXPECT_EQ(path_to_string({1, 2, 3}), "1->2->3");
  EXPECT_EQ(path_to_string(Path{}), "");
  EXPECT_EQ(path_to_string({9}), "9");
}

TEST(PathView, NullAndContentSemantics) {
  const Path p{3, 1, 4};
  const PathView v(p.data(), p.size());
  EXPECT_FALSE(v.null());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front(), 3u);
  EXPECT_EQ(v.back(), 4u);
  EXPECT_EQ(v.hops(), 2u);
  EXPECT_EQ(v, p);
  EXPECT_EQ(*v, p);             // pointer-like dereference
  EXPECT_EQ(v->size(), 3u);     // pointer-like member access
  EXPECT_EQ(v.to_path(), p);

  const PathView null_view;
  EXPECT_TRUE(null_view.null());
  EXPECT_EQ(null_view, nullptr);
  EXPECT_NE(v, nullptr);
  EXPECT_FALSE(null_view == p);
  EXPECT_FALSE(null_view == v);
}

TEST(Graph, LargeGraphDegreeSums) {
  GraphBuilder b(1000);
  for (Node u = 0; u + 1 < 1000; ++u) b.add_edge(u, u + 1);
  const Graph g = b.build();
  std::size_t total = 0;
  for (Node u = 0; u < 1000; ++u) total += g.degree(u);
  EXPECT_EQ(total, 2 * g.num_edges());  // handshake lemma
}

}  // namespace
}  // namespace ftr
