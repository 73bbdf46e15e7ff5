// Undirected simple graph used as the network model throughout ftroute.
//
// Design notes:
//  * Nodes are dense integers 0..n-1 (Node = uint32_t); the generators in
//    src/gen own any richer labeling (hypercube bit-strings, CCC (ring,pos)
//    pairs, ...) and expose it via GraphInfo.
//  * Graph is an immutable CSR (compressed sparse row) structure: one
//    contiguous `offsets` array (n+1 entries) and one contiguous `targets`
//    array (2m entries), with each node's neighbor row sorted. Neighbor
//    scans are cache-linear, `has_edge` is O(log d), and set operations
//    (intersections, disjointness checks used by the two-trees detector)
//    are linear merges.
//  * Graphs are assembled through GraphBuilder, which enforces simplicity
//    (no self-loops, no parallel edges) during construction and flattens to
//    CSR with build().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/flat_array.hpp"

namespace ftr {

using Node = std::uint32_t;

/// Largest node count any loader accepts (text headers, binary snapshots);
/// checked before anything sized by it is allocated.
inline constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 31;

/// A simple path, stored as the node sequence from source to target
/// (inclusive). An empty vector means "no path".
using Path = std::vector<Node>;

/// Non-owning view of a contiguous node sequence (a route stored in a path
/// arena). Views stay valid until the owning container next mutates.
///
/// PathView is deliberately pointer-like as well as range-like: RoutingTable
/// used to hand out `const Path*`, so a null view compares equal to nullptr
/// and operator*/operator-> yield the view itself. That keeps call sites
/// like `*table.route(x, y)` and `leg->size()` mechanical to port.
class PathView {
 public:
  constexpr PathView() = default;
  constexpr PathView(const Node* data, std::size_t size)
      : data_(data), size_(size) {}

  constexpr bool null() const { return data_ == nullptr; }
  constexpr explicit operator bool() const { return data_ != nullptr; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr std::size_t size() const { return size_; }
  constexpr const Node* data() const { return data_; }
  constexpr const Node* begin() const { return data_; }
  constexpr const Node* end() const { return data_ + size_; }
  std::reverse_iterator<const Node*> rbegin() const {
    return std::reverse_iterator<const Node*>(end());
  }
  std::reverse_iterator<const Node*> rend() const {
    return std::reverse_iterator<const Node*>(begin());
  }
  constexpr Node operator[](std::size_t i) const { return data_[i]; }
  constexpr Node front() const { return data_[0]; }
  constexpr Node back() const { return data_[size_ - 1]; }
  /// Number of edges on the route (0 for null/empty views).
  constexpr std::size_t hops() const { return size_ == 0 ? 0 : size_ - 1; }
  constexpr std::span<const Node> span() const { return {data_, size_}; }

  /// Materializes an owning copy.
  Path to_path() const { return Path(begin(), end()); }

  // Pointer-like compatibility shims.
  constexpr const PathView& operator*() const { return *this; }
  constexpr const PathView* operator->() const { return this; }
  friend constexpr bool operator==(const PathView& v, std::nullptr_t) {
    return v.null();
  }

  /// Content equality (two null views are equal; a null view never equals a
  /// Path, not even an empty one).
  friend bool operator==(const PathView& a, const PathView& b) {
    if (a.null() || b.null()) return a.null() == b.null();
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const PathView& v, const Path& p) {
    if (v.null() || v.size_ != p.size()) return false;
    for (std::size_t i = 0; i < v.size_; ++i) {
      if (v.data_[i] != p[i]) return false;
    }
    return true;
  }
  friend bool operator==(const Path& p, const PathView& v) { return v == p; }

 private:
  const Node* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Undirected simple graph over nodes 0..n-1, immutable once built.
class Graph {
 public:
  /// An empty graph on zero nodes.
  Graph() = default;

  /// Creates an edgeless graph on n nodes. Graphs with edges are built via
  /// GraphBuilder.
  explicit Graph(std::size_t n);

  std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const { return num_edges_; }

  /// O(log deg(u)) membership test.
  bool has_edge(Node u, Node v) const;

  std::size_t degree(Node u) const;

  /// Sorted neighbor row of u in the CSR arrays; valid for the lifetime of
  /// the graph (Graph is immutable).
  std::span<const Node> neighbors(Node u) const;

  /// Minimum and maximum degree over all nodes. Empty graph => {0, 0}.
  std::size_t min_degree() const;
  std::size_t max_degree() const;

  /// All edges as (u, v) pairs with u < v, sorted lexicographically.
  std::vector<std::pair<Node, Node>> edges() const;

  /// Streams each edge (u, v), u < v, in sorted order without materializing
  /// the edge list — the allocation-free counterpart of edges().
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (Node u = 0; u < num_nodes(); ++u) {
      for (Node v : neighbors(u)) {
        if (u < v) fn(u, v);
      }
    }
  }

  /// Returns a copy of this graph with the given nodes (and their incident
  /// edges) removed. Node identities are preserved: the result keeps n nodes
  /// and the removed nodes simply become isolated. This keeps fault handling
  /// simple — fault sets never renumber the survivors.
  Graph without_nodes(const std::vector<Node>& removed) const;

  /// True if `path` is a simple path in this graph (consecutive nodes
  /// adjacent, no repeated node). Single-node paths are valid.
  bool is_simple_path(const Path& path) const;
  bool is_simple_path(PathView path) const;

  /// True if every node in the (possibly empty) set is a valid node id.
  bool valid_node(Node u) const { return u < num_nodes(); }

  /// Footprint of the CSR arrays: allocator capacity when owned, mapped
  /// extent when snapshot-backed. Byte-accounted caches (the serving
  /// layer's table registry) sum this into their residency budget.
  std::size_t memory_bytes() const {
    return offsets_.memory_bytes() + targets_.memory_bytes();
  }

  bool operator==(const Graph& other) const {
    return offsets_ == other.offsets_ && targets_ == other.targets_;
  }

 private:
  friend class GraphBuilder;
  friend struct SnapshotAccess;  // binary snapshot save/load (serialization)
  Graph(std::vector<std::uint32_t> offsets, std::vector<Node> targets,
        std::size_t num_edges);

  // CSR arrays: owned vectors normally, aliases into a mapped snapshot on
  // the zero-copy load path (Graph is immutable either way).
  FlatArray<std::uint32_t> offsets_;  // n+1 row offsets into targets_
  FlatArray<Node> targets_;           // concatenated sorted neighbor rows
  std::size_t num_edges_ = 0;
};

/// Mutable assembly stage for Graph. Carries the old mutable-Graph edge
/// semantics (sorted adjacency, duplicate edges rejected by return value,
/// self-loops/out-of-range throw) and flattens to the immutable CSR form
/// with build().
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Starts from an edgeless graph on n nodes.
  explicit GraphBuilder(std::size_t n);

  /// Starts from an existing graph (used to augment a network with extra
  /// edges, cf. routing/augmented).
  explicit GraphBuilder(const Graph& g);

  std::size_t num_nodes() const { return adj_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge {u, v}. Returns true if the edge was new,
  /// false if it already existed. Self-loops are rejected (precondition).
  bool add_edge(Node u, Node v);

  /// O(log deg(u)) membership test against the edges added so far.
  bool has_edge(Node u, Node v) const;

  /// Flattens to the immutable CSR Graph. The builder remains usable (e.g.
  /// to keep adding edges and build a larger graph later).
  Graph build() const;

 private:
  std::vector<std::vector<Node>> adj_;
  std::size_t num_edges_ = 0;
};

/// Formats a path as "a->b->c" for diagnostics.
std::string path_to_string(const Path& path);
std::string path_to_string(PathView path);

}  // namespace ftr
