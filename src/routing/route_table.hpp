// The routing function rho of the paper: a partial map from ordered node
// pairs to fixed simple paths, with the "miserly" restriction of at most one
// route per pair enforced structurally.
//
// A bidirectional table (the paper's default) stores both directions of each
// assigned path and keeps them mirror images; a unidirectional table treats
// rho(x,y) and rho(y,x) as independent entries (used by the unidirectional
// bipolar routing of Section 5).
//
// Conflict discipline: the paper's constructions occasionally re-derive the
// same route from two components (e.g. the direct edge between m_i^1 and r1
// arises in every Component B-POL 3 tree routing). Re-assigning an
// *identical* path is therefore a no-op, while assigning a *different* path
// to an already-routed pair throws ContractViolation — this turns the
// paper's "the reader may confirm there is at most one route between each
// pair" remarks into machine-checked invariants.
//
// Storage: flat arrays in insertion order — every route's nodes back to
// back in one arena, its offset into the arena, and its pair's endpoints —
// plus an open-addressed hash index over them for the lookups constructions
// make while they build. One heap block for all path data instead of one
// vector per route — the difference between thrashing and streaming when
// the surviving-route-graph engine replays thousands of fault sets. These
// are the arrays the SRG kernels read: an SrgIndex built from the table
// shares them rather than copying them (fault/srg_engine.hpp).
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

  RoutingTable(std::size_t num_nodes, RoutingMode mode);

  std::size_t num_nodes() const { return n_; }
  RoutingMode mode() const { return mode_; }

  /// Assigns the route for the ordered pair (path.front(), path.back());
  /// in bidirectional mode the reversed path is assigned to the reverse
  /// pair as well. Path must have >= 2 nodes. Identical re-assignment is a
  /// no-op; conflicting re-assignment throws.
  void set_route(const Path& path);

  /// Assigns only if the ordered pair has no route yet (both directions
  /// unset in bidirectional mode). Returns true if assigned. Used by
  /// Component B-POL 5 ("define the other direction along the same path").
  bool set_route_if_absent(const Path& path);

  /// The route for ordered pair (x, y), or a null view if undefined. The
  /// view points into the path arena and stays valid until the next
  /// set_route (it compares equal to nullptr when the pair is unrouted,
  /// matching the old `const Path*` contract).
  PathView route(Node x, Node y) const;

  bool has_route(Node x, Node y) const { return !route(x, y).null(); }

  /// Number of defined ordered pairs (a bidirectional assignment counts 2).
  std::size_t num_routes() const { return pair_src_.size(); }

  /// Iterates all defined ordered pairs as (x, y, path) in insertion order.
  /// Materializes a Path per call — use for_each_view on hot paths. The
  /// Path reference is only valid for the duration of the callback (it is
  /// a temporary, unlike the map-backed storage this class replaced).
  void for_each(const std::function<void(Node, Node, const Path&)>& fn) const;

  /// Allocation-free iteration over (x, y, route view), insertion order.
  /// Views remain valid until the next set_route.
  void for_each_view(
      const std::function<void(Node, Node, PathView)>& fn) const;

  /// Structural validation (used heavily in tests):
  ///  * every path is a simple path of g starting/ending at its key pair,
  ///  * bidirectional tables are symmetric with mirrored paths,
  ///  * adjacent pairs that have a route use the direct edge if the route's
  ///    length-1 (sanity; constructions enforce stronger rules themselves).
  /// Throws ContractViolation on the first violation.
  void validate(const Graph& g) const;

  struct Stats {
    std::size_t ordered_pairs = 0;
    std::size_t max_hops = 0;   // longest route, in edges
    double avg_hops = 0.0;
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

  std::uint64_t key(Node x, Node y) const { return std::uint64_t{x} * n_ + y; }
  std::uint32_t find(Node x, Node y) const;
  void grow_slots();
  // Compares/installs the route x -> y; `rev` stores the path reversed.
  void assign(Node x, Node y, const Path& p, bool rev);
  PathView view_of(std::uint32_t r) const {
    return {arena_.data() + route_off_[r], route_off_[r + 1] - route_off_[r]};
  }

  friend class SrgIndex;         // shares the route arrays
  friend struct SnapshotAccess;  // binary snapshot save/load (serialization)

  std::size_t n_;
  RoutingMode mode_;
  // Routes in insertion order; route r is the ordered pair (pair_src_[r],
  // pair_dst_[r]) with nodes arena_[route_off_[r] .. route_off_[r + 1]),
  // so route_off_ always holds num_routes() + 1 offsets.
  // Owned vectors normally; aliases into a mapped snapshot on the zero-copy
  // load path. Copies (an SrgIndex's among them) share the bytes, and
  // mutation detaches to a private copy — see common/flat_array.hpp.
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
