// Dinic max-flow on small integer-capacity networks.
//
// This is the Menger engine behind everything in ftroute: node connectivity,
// minimum vertex cuts, internally node-disjoint paths, and the tree routings
// of Lemma 2 are all computed on vertex-split unit-capacity networks built on
// top of this class. Unit capacities make Dinic run in O(E * sqrt(V)).
//
// Layout. Planning one table runs hundreds to thousands of flows (one per
// tree routing), so a network is meant to be reused: reset() drops the
// edges and flow but keeps every buffer's capacity, so a warm network
// builds and solves a query without touching the heap. Edges live in flat
// arrays (to/cap/init; edge id ^ 1 is the paired reverse edge, so the tail
// of edge id is to[id ^ 1]). The out-edge lists are a CSR index built once
// per query, on the first max_flow/out_edges/residual_reachable after an
// add_edge; each node's ids stay in add_edge order, so traversal order,
// augmenting paths and flow decompositions are exactly those of a
// per-node adjacency list.
//
// Two exact shortcuts:
//  * The level BFS stops the moment it labels the sink, at level L. By
//    then every node below L has its level (BFS labels level by level), so
//    the only nodes a full BFS would still label sit at level L or beyond,
//    and those can never reach the sink in the level graph (levels rise by
//    one per admissible edge, and the sink is at L). The blocking-flow DFS
//    therefore finds the same augmenting paths in the same order; it just
//    spends no time on dead ends at or past the sink's level.
//  * max_flow(s, t, limit) stops once `limit` units are found. Callers that
//    take a minimum over several flows may pass the best value so far: a
//    flow that reaches it cannot lower the minimum, and one that stays
//    below it is computed in full.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ftr {

/// A directed flow network with integer capacities over nodes
/// 0..num_nodes-1 (fixed at construction or reset).
class FlowNetwork {
 public:
  FlowNetwork() = default;
  explicit FlowNetwork(std::size_t num_nodes) { reset(num_nodes); }

  /// Empties the network and resizes it to `num_nodes` nodes, keeping the
  /// buffers' capacity for the next query.
  void reset(std::size_t num_nodes);

  std::size_t num_nodes() const { return num_nodes_; }

  /// Adds a directed edge u -> v with the given capacity; returns the edge
  /// id (the paired reverse edge has id ^ 1). Capacity must be >= 0.
  std::size_t add_edge(std::uint32_t u, std::uint32_t v, std::int64_t capacity);

  /// Runs Dinic from s to t, augmenting up to `limit` units (default: no
  /// limit). Returns the flow value found. Can be called repeatedly; flow
  /// accumulates.
  std::int64_t max_flow(std::uint32_t s, std::uint32_t t,
                        std::int64_t limit = kNoLimit);

  /// Flow currently on edge `id` (forward edges only meaningful).
  std::int64_t flow_on(std::size_t id) const;

  /// Residual capacity of edge `id`.
  std::int64_t residual(std::size_t id) const;

  /// Nodes reachable from s in the residual graph after max_flow; this is
  /// the source side of a minimum cut.
  std::vector<char> residual_reachable(std::uint32_t s);

  /// Edge target node.
  std::uint32_t edge_to(std::size_t id) const { return to_[id]; }

  /// For flow decomposition: consume one unit of flow along edge id.
  void consume_unit(std::size_t id);

  /// Out-edge ids of node u in add_edge order (forward and reverse edges
  /// interleaved). The span is valid until the next add_edge or reset.
  std::span<const std::uint32_t> out_edges(std::uint32_t u);

  static constexpr std::int64_t kNoLimit = INT64_MAX;

 private:
  void build_out_edges();
  bool bfs_levels(std::uint32_t s, std::uint32_t t);
  std::int64_t dfs_augment(std::uint32_t u, std::uint32_t t, std::int64_t pushed);

  std::size_t num_nodes_ = 0;
  std::vector<std::uint32_t> to_;
  std::vector<std::int64_t> cap_;   // residual capacities
  std::vector<std::int64_t> init_;  // original capacities (for flow_on)
  // CSR out-edges: node u's ids are edges_[first_[u] .. first_[u + 1]).
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> edges_;
  bool out_edges_stale_ = true;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<std::uint32_t> queue_;
};

}  // namespace ftr
