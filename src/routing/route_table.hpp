// The routing function rho of the paper: a partial map from ordered node
// pairs to fixed simple paths. Section 6's multiroutings let a pair hold up
// to `max_routes_per_pair` parallel routes, and a routing is the
// multirouting with one route per pair: the cap is 1 by default (the
// paper's "miserly" routing), and 0 lifts it. The surviving graph keeps the
// arc x -> y when at least one route of the pair survives
// (fault/surviving.hpp).
//
// A bidirectional table (the paper's default) stores both directions of each
// assigned path and keeps them mirror images; a unidirectional table treats
// rho(x,y) and rho(y,x) as independent entries (used by the unidirectional
// bipolar routing of Section 5).
//
// Write discipline (RouteTableBuilder): the paper's constructions
// occasionally re-derive the same route from two components (e.g. the
// direct edge between m_i^1 and r1 arises in every Component B-POL 3 tree
// routing). Adding a path the pair already holds is therefore a no-op,
// while adding a new path to a pair already at its cap throws
// ContractViolation. At cap 1 this turns the paper's "the reader may
// confirm there is at most one route between each pair" remarks into
// machine-checked invariants, and at cap 2 or t + 1 Section 6's "at most
// two parallel routes" / "t+1 parallel routes" budgets.
//
// Writing and reading are split the way GraphBuilder and Graph split them:
// constructions write to a RouteTableBuilder, and build() freezes it into
// an immutable RoutingTable, as a routing is fixed once computed and then
// distributed.
//
// Storage: flat arrays, pair-major — every route's nodes back to back in
// one arena with its offset into it, the pairs' endpoints and route ranges,
// and each source's pairs sorted by target, which route(x, y) binary-
// searches. One heap block for all path data instead of one vector per
// route — the difference between thrashing and streaming when the
// surviving-route-graph engine replays thousands of fault sets. These are
// the arrays the SRG kernels read: an SrgIndex shares them whole rather
// than copying them (fault/srg_engine.hpp), and a snapshot load aliases
// the arena and offsets into the mapped file.
//
// Order: pairs in order of their first route, each pair's routes in
// insertion order, as consecutive route ids. With one route per pair that
// is plain insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/flat_array.hpp"
#include "graph/graph.hpp"

namespace ftr {

enum class RoutingMode : std::uint8_t { kBidirectional, kUnidirectional };

/// A frozen routing table: built by RouteTableBuilder::build(), loaded from
/// text or a snapshot, and never written after.
class RoutingTable {
 public:
  /// An empty table over zero nodes, so that result structs (e.g.
  /// RecoveryOutcome) can default-construct; every lookup fails.
  RoutingTable() : n_(0), mode_(RoutingMode::kBidirectional) {}

  std::size_t num_nodes() const { return n_; }
  RoutingMode mode() const { return mode_; }
  /// Bound on the parallel routes of each ordered pair; 0 means no cap.
  std::size_t max_routes_per_pair() const { return cap_; }

  /// The first route of ordered pair (x, y), or a null view if it has
  /// none. The view points into the path arena and stays valid while the
  /// table (or any copy of it, an SrgIndex among them) lives; it compares
  /// equal to nullptr when the pair is unrouted.
  PathView route(Node x, Node y) const;

  bool has_route(Node x, Node y) const { return !route(x, y).null(); }

  /// Every route of ordered pair (x, y) in insertion order; empty if none.
  std::vector<PathView> routes(Node x, Node y) const;

  /// Number of stored routes (a bidirectional assignment counts 2, and
  /// every parallel route counts).
  std::size_t num_routes() const {
    return route_off_.empty() ? 0 : route_off_.size() - 1;
  }

  /// Number of ordered pairs with at least one route (num_routes() when
  /// every pair holds one route).
  std::size_t num_pairs() const { return pair_src_.size(); }

  /// Iterates all routes as (x, y, path), pair-major. Materializes a Path
  /// per call — use for_each_view on hot paths. The Path reference is only
  /// valid for the duration of the callback.
  void for_each(const std::function<void(Node, Node, const Path&)>& fn) const;

  /// Allocation-free iteration over (x, y, route view), pair-major.
  void for_each_view(
      const std::function<void(Node, Node, PathView)>& fn) const;

  /// Structural validation (used heavily in tests):
  ///  * every path is a simple path of g,
  ///  * no pair holds more routes than the cap,
  ///  * bidirectional tables hold the mirror of every route.
  /// Throws ContractViolation on the first violation.
  void validate(const Graph& g) const;

  struct Stats {
    std::size_t ordered_pairs = 0;
    std::size_t max_hops = 0;   // longest route, in edges
    double avg_hops = 0.0;      // over all routes
  };
  Stats stats() const;

  /// Total nodes stored across all routes (arena length) — the engine uses
  /// this to size its preprocessing buffers in one shot.
  std::size_t arena_size() const { return arena_.size(); }

  /// Footprint of the table's arrays — allocator capacity when owned,
  /// mapped extent when snapshot-backed — for byte-accounted caches like
  /// the serving layer's table registry.
  std::size_t memory_bytes() const {
    return arena_.memory_bytes() + route_off_.memory_bytes() +
           pair_src_.memory_bytes() + pair_dst_.memory_bytes() +
           pair_route_off_.memory_bytes() + src_pair_off_.memory_bytes() +
           src_pair_ids_.memory_bytes();
  }

 private:
  // The table over stored routes, pair-major (RouteTableBuilder::build()
  // and the snapshot loader): derives each route's pair from its first and
  // last node, each pair's route range, and each source's pairs sorted by
  // target. A pair's routes are consecutive and at most `cap` of them
  // (0: any number); a pair that appears again is refused as listed twice.
  RoutingTable(std::size_t num_nodes, RoutingMode mode, std::size_t cap,
               FlatArray<Node> arena, FlatArray<std::uint32_t> route_off);

  static constexpr std::uint32_t kNoPair = 0xffffffffu;
  // The pair id of (x, y) by binary search over x's pairs, or kNoPair.
  std::uint32_t find_pair(Node x, Node y) const;
  PathView view_of(std::uint32_t r) const {
    return {arena_.data() + route_off_[r], route_off_[r + 1] - route_off_[r]};
  }

  friend class RouteTableBuilder;
  friend class SrgIndex;         // shares every array
  friend struct SnapshotAccess;  // binary snapshot save/load (serialization)

  std::size_t n_;
  RoutingMode mode_;
  std::size_t cap_ = 1;
  // Route r has nodes arena_[route_off_[r] .. route_off_[r + 1]), so
  // route_off_ holds num_routes() + 1 offsets. Pair p is (pair_src_[p],
  // pair_dst_[p]) with routes [pair_route_off_[p], pair_route_off_[p + 1]).
  // Node x's pairs are src_pair_ids_[src_pair_off_[x] .. src_pair_off_[x +
  // 1]), by ascending target. Owned vectors, except that a snapshot load
  // aliases arena_ and route_off_ into the mapped file; copies (an
  // SrgIndex's among them) share the bytes — see common/flat_array.hpp.
  FlatArray<Node> arena_;
  FlatArray<std::uint32_t> route_off_{std::vector<std::uint32_t>{0}};
  FlatArray<Node> pair_src_;
  FlatArray<Node> pair_dst_;
  FlatArray<std::uint32_t> pair_route_off_{std::vector<std::uint32_t>{0}};
  FlatArray<std::uint32_t> src_pair_off_;
  FlatArray<std::uint32_t> src_pair_ids_;
};

/// The write side of a RoutingTable: constructions add routes here under
/// the write discipline at the top of this header, then build() freezes
/// them.
class RouteTableBuilder {
 public:
  /// `max_routes_per_pair` bounds the parallel routes of each ordered
  /// pair; 0 means no cap.
  RouteTableBuilder(std::size_t num_nodes, RoutingMode mode,
                    std::size_t max_routes_per_pair = 1);

  std::size_t num_nodes() const { return n_; }
  RoutingMode mode() const { return mode_; }
  std::size_t max_routes_per_pair() const { return cap_; }
  std::size_t num_routes() const { return route_off_.size() - 1; }

  /// Adds `path` as a route of the ordered pair (path.front(),
  /// path.back()); in bidirectional mode the reversed path is added to the
  /// reverse pair as well. Path must have >= 2 nodes. A path the pair
  /// already holds is a no-op; a new path for a pair at its cap throws.
  void set_route(const Path& path);

  /// Like set_route, but returns false without change when a new path
  /// would exceed the cap in either direction. A path the pairs already
  /// hold counts as added. Used by Component B-POL 5 ("define the other
  /// direction along the same path") and by the MULT construction, whose
  /// overlapping shells produce more candidate routes than its two-route
  /// budget.
  bool try_set_route(const Path& path);

  /// True once some route of (x, y) was added.
  bool has_route(Node x, Node y) const;

  /// Iterates the routes added so far as (x, y, path) in insertion order
  /// (the built table's order when every pair holds one route). Views are
  /// valid for the duration of the callback.
  void for_each_view(
      const std::function<void(Node, Node, PathView)>& fn) const;

  /// Freezes the routes into a table, pair-major (the identity at one
  /// route per pair).
  RoutingTable build() &&;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Where a path stands against the routes its pair already holds.
  enum class Fit : std::uint8_t { kNewPair, kRoom, kHeld, kFull };

  std::uint64_t key(Node x, Node y) const { return std::uint64_t{x} * n_ + y; }
  std::uint32_t find_pair(Node x, Node y) const;  // pair id, or kNone
  void check_endpoints(const Path& path) const;
  // `p` (reversed when `rev`) against the routes of x -> y.
  Fit fit(Node x, Node y, const Path& p, bool rev) const;
  // Appends `p` (reversed when `rev`) as a route of x -> y.
  void append(Node x, Node y, const Path& p, bool rev);
  PathView view_of(std::uint32_t r) const {
    return {arena_.data() + route_off_[r], route_off_[r + 1] - route_off_[r]};
  }

  std::size_t n_;
  RoutingMode mode_;
  std::size_t cap_;
  // Routes in insertion order, each chained to the next route of its pair
  // (route_next_); pairs in order of their first route.
  std::vector<Node> arena_;
  std::vector<std::uint32_t> route_off_{0};
  std::vector<std::uint32_t> route_next_;
  std::vector<std::uint32_t> pair_first_;
  std::unordered_map<std::uint64_t, std::uint32_t> pair_of_;  // key -> pair
};

/// Installs a direct-edge route for every edge of g (Components KERNEL 2,
/// CIRC 3, T-CIRC 4, B-POL 6, 2B-POL 5, MULT 3 all share this shape).
void install_edge_routes(RouteTableBuilder& table, const Graph& g);

}  // namespace ftr
