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
// Write discipline: the paper's constructions occasionally re-derive the
// same route from two components (e.g. the direct edge between m_i^1 and r1
// arises in every Component B-POL 3 tree routing). Adding a path the pair
// already holds is therefore a no-op, while adding a new path to a pair
// already at its cap throws ContractViolation. At cap 1 this turns the
// paper's "the reader may confirm there is at most one route between each
// pair" remarks into machine-checked invariants, and at cap 2 or t + 1
// Section 6's "at most two parallel routes" / "t+1 parallel routes" budgets.
//
// Storage: flat arrays in insertion order — every route's nodes back to
// back in one arena, its offset into the arena, and its pair's endpoints —
// plus an open-addressed hash index over them for the lookups constructions
// make while they build. The index is a multi-map: linear probing without
// deletions keeps a pair's routes on its probe run in insertion order. One
// heap block for all path data instead of one vector per route — the
// difference between thrashing and streaming when the surviving-route-graph
// engine replays thousands of fault sets. These are the arrays the SRG
// kernels read: an SrgIndex built from a table with one route per pair
// shares them rather than copying them (fault/srg_engine.hpp).
//
// Iteration is pair-major: pairs in order of their first route, each
// pair's routes in insertion order. With one route per pair that is plain
// insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_array.hpp"
#include "graph/graph.hpp"

namespace ftr {

enum class RoutingMode : std::uint8_t { kBidirectional, kUnidirectional };

class RoutingTable {
 public:
  /// An empty table over zero nodes; any set_route fails. Exists so that
  /// result structs (e.g. RecoveryOutcome) can default-construct.
  RoutingTable() : n_(0), mode_(RoutingMode::kBidirectional) {}

  /// `max_routes_per_pair` bounds the parallel routes of each ordered
  /// pair; 0 means no cap.
  RoutingTable(std::size_t num_nodes, RoutingMode mode,
               std::size_t max_routes_per_pair = 1);

  std::size_t num_nodes() const { return n_; }
  RoutingMode mode() const { return mode_; }
  std::size_t max_routes_per_pair() const { return cap_; }

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

  /// The first route of ordered pair (x, y), or a null view if it has
  /// none. The view points into the path arena and stays valid until the
  /// next set_route (it compares equal to nullptr when the pair is
  /// unrouted, matching the old `const Path*` contract).
  PathView route(Node x, Node y) const;

  bool has_route(Node x, Node y) const { return !route(x, y).null(); }

  /// Every route of ordered pair (x, y) in insertion order; empty if none.
  /// Views stay valid until the next set_route.
  std::vector<PathView> routes(Node x, Node y) const;

  /// Number of stored routes (a bidirectional assignment counts 2, and
  /// every parallel route counts).
  std::size_t num_routes() const { return pair_src_.size(); }

  /// Number of ordered pairs with at least one route (num_routes() when
  /// every pair holds one route).
  std::size_t num_pairs() const { return num_pairs_; }

  /// Iterates all routes as (x, y, path), pair-major. Materializes a Path
  /// per call — use for_each_view on hot paths. The Path reference is only
  /// valid for the duration of the callback.
  void for_each(const std::function<void(Node, Node, const Path&)>& fn) const;

  /// Allocation-free iteration over (x, y, route view), pair-major.
  /// Views remain valid until the next set_route.
  void for_each_view(
      const std::function<void(Node, Node, PathView)>& fn) const;

  /// Structural validation (used heavily in tests):
  ///  * every path is a simple path of g starting/ending at its key pair,
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

  /// Footprint of the route arrays and slot index — allocator capacity
  /// when owned, mapped extent when snapshot-backed — for byte-accounted
  /// caches like the serving layer's table registry.
  std::size_t memory_bytes() const {
    return arena_.memory_bytes() + route_off_.memory_bytes() +
           pair_src_.memory_bytes() + pair_dst_.memory_bytes() +
           slots_.memory_bytes();
  }

 private:
  static constexpr std::uint32_t kNoRoute = 0xffffffffu;

  // Where a path stands against the routes its pair already holds.
  enum class Fit : std::uint8_t { kNewPair, kRoom, kHeld, kFull };

  std::uint64_t key(Node x, Node y) const { return std::uint64_t{x} * n_ + y; }
  // Calls visit(r) on the routes of (x, y) in insertion order until it
  // returns false.
  template <typename Visit>
  void probe(Node x, Node y, Visit visit) const;
  std::uint32_t find(Node x, Node y) const;  // first route, or kNoRoute
  void check_endpoints(const Path& path) const;
  // `p` (reversed when `rev`) against the routes of x -> y.
  Fit fit(Node x, Node y, const Path& p, bool rev) const;
  // Appends `p` (reversed when `rev`) as a route of x -> y.
  void append(Node x, Node y, const Path& p, bool rev, bool new_pair);
  // Rebuilds slots_ over every route at the count appending reaches: the
  // smallest power of two >= max(16, 2 * num_routes()).
  void rebuild_slots();
  PathView view_of(std::uint32_t r) const {
    return {arena_.data() + route_off_[r], route_off_[r + 1] - route_off_[r]};
  }

  // The table over stored routes, one per pair (a snapshot load): each
  // route's pair is its first and last node, and the slot index is
  // rebuilt. A repeated pair is refused by the SrgIndex built over it.
  RoutingTable(std::size_t num_nodes, RoutingMode mode, FlatArray<Node> arena,
               FlatArray<std::uint32_t> route_off);

  friend class SrgIndex;         // shares the route arrays
  friend struct SnapshotAccess;  // binary snapshot save/load (serialization)

  std::size_t n_;
  RoutingMode mode_;
  std::size_t cap_ = 1;
  std::size_t num_pairs_ = 0;
  // Routes in insertion order; route r is the ordered pair (pair_src_[r],
  // pair_dst_[r]) with nodes arena_[route_off_[r] .. route_off_[r + 1]),
  // so route_off_ always holds num_routes() + 1 offsets.
  // Owned vectors, except that a snapshot load aliases arena_ and
  // route_off_ into the mapped file. Copies (an SrgIndex's among them)
  // share the bytes, and mutation detaches to a private copy — see
  // common/flat_array.hpp.
  FlatArray<Node> arena_;               // all route nodes, back to back
  FlatArray<std::uint32_t> route_off_{std::vector<std::uint32_t>{0}};
  FlatArray<Node> pair_src_;
  FlatArray<Node> pair_dst_;
  FlatArray<std::uint32_t> slots_;      // open-addressed index of routes
};

/// Installs a direct-edge route for every edge of g (Components KERNEL 2,
/// CIRC 3, T-CIRC 4, B-POL 6, 2B-POL 5, MULT 3 all share this shape).
void install_edge_routes(RoutingTable& table, const Graph& g);

}  // namespace ftr
