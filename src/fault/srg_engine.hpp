// Batched evaluation of surviving route graphs R(G, rho)/F.
//
// The hot loop of every experiment in this repo is "strike a fault set,
// materialize the surviving route graph, measure its diameter" — repeated
// across thousands of fault sets against the SAME routing table (tolerance
// checks, adversarial hill-climbing, recovery sweeps). The one-shot path in
// fault/surviving.cpp rebuilds a Digraph (one heap vector per node) and
// re-walks every route per fault set; this layer preprocesses the table
// once and answers each fault set from reusable, epoch-stamped scratch
// buffers.
//
// The split matters for the parallel sweep layer:
//
//  * SrgIndex is the immutable preprocessing — the routes as per-route
//    node ranges, a node -> routes inverted index, and the fault-free route
//    graph as bitset rows. It shares the table's arrays whole (arena, route
//    offsets, pair endpoints and route ranges, the pairs by source) instead
//    of copying them: FlatArray copies share their bytes, and a table is
//    frozen once built. It is read-only after construction, so ONE index
//    serves any number of concurrent workers.
//  * SrgScratch is the per-thread mutable state — the epoch-stamped fault
//    and kill stamps, the dead-pair list, the struck set's bitset rows,
//    the packed lane blocks, and the BFS queues. Each sweep worker owns
//    one; evaluations are allocation-free after warm-up. The per-route and
//    per-pair stamps are sized by the first strike, so a scratch that only
//    runs packed blocks never holds them. Single-threaded callers build one
//    index and one scratch next to it.
//
// Delivery (sim/network_sim.hpp) runs on the same scratch and needs only
// the current set's fault stamps: set_faults() stamps them without
// striking (evaluate() stamps them too), and last_survivors() and
// route_path() answer from them, testing each arc route_path walks for a
// route that avoids every stamped fault and keeping the first such route
// of each arc it takes (path_routes()). A set whose diameter came from a
// packed block is therefore never struck or turned into bitset rows, and
// no per-set Digraph is ever materialized.
//
// Per fault set (evaluate(), componentwise_diameter()):
//  * the index holds the fault-free successor/predecessor bitset rows once
//    (one bit per ordered pair with a route), since R(G, rho)/F differs
//    from the fault-free route graph only in the pairs whose every route
//    meets F;
//  * strike() walks only the routes through the faults (the node -> routes
//    inverted index), stamps them killed, and counts each touched pair's
//    live routes down; a pair is listed dead when its count reaches 0, so a
//    multiroute pair dies only with its last route;
//  * the bitset view copies the base rows and clears the dead pairs' bits,
//    and BFS runs over it allocation-free after the first evaluation.
// A set costs O(sum over faults of routes-through-fault + n * ceil(n/64))
// instead of O(all routes).
//
// There are two evaluation paths, and the caller's shape picks between them
// — no option does: evaluate() strikes one fault set and runs the bitset
// BFS, and the packed kernel runs a block of up to lane_width() sets at
// once — Gray-adjacent sets through evaluate_gray_block(), any sets
// through evaluate_block(). evaluate_sets() is the one policy for any
// number of unrelated sets: it cuts them into lane blocks and runs a block
// packed when it holds at least kMinAnySetBlock sets, else set by set
// through evaluate(). Sampled and explicit sweeps (analysis/fault_sweep.hpp,
// the check's sampled unit included) and the hill-climber
// (fault/adversary.hpp) evaluate through it; exhaustive sweeps and checks
// run Gray blocks.
//
// Semantics match fault/surviving.cpp exactly: an arc x -> y survives iff
// some route rho(x, y) avoids every fault (endpoints included), and the
// diameter is the directed max over ordered survivor pairs (kUnreachable if
// any pair cannot route, 0 when fewer than two survivors remain).
//
// EVALUATION KERNELS. The diameter BFS dominates every evaluation (the
// surviving route graph is near-complete — one arc per ordered pair with a
// live route — so each BFS touches ~n^2 arcs). SrgScratch runs it two
// ways:
//
//  * bitset — evaluate()/componentwise_diameter(): the struck set's
//    succ/pred rows, word-packed frontier/visited bitmaps, and a
//    direction-optimizing (top-down/bottom-up) switch driven by frontier
//    density. The surviving route graphs are dense-frontier for most of
//    each BFS, exactly the regime where bottom-up's "scan unvisited nodes,
//    test predecessor rows" wins.
//  * packed — evaluate_gray_block() / evaluate_block(): up to
//    lane_width() fault sets evaluated against one W-word lane block at a
//    time (W in {1,2,4,8} words -> 64/128/256/512 lanes; the widest the CPU
//    profits from — see common/cpu_features.hpp). A lane-parallel BFS
//    turns route liveness and reachability into AND/OR/ANDNOT over lane
//    blocks held in vector registers. Gray blocks store per-route kill
//    masks and per-pair dead masks for the pairs their faults touch; any-
//    set blocks store none and OR each probed route's node lanes on the
//    fly. Arc counts come from a bit-sliced per-lane counter the dead
//    masks are added into, and diameters from per-level masks of the
//    lanes each BFS level reached; both are read out once per block, so no
//    phase loops over lanes per pair or per level. The BFS switches per
//    level between top-down over out-pairs and bottom-up over in-pairs on
//    frontier density, like the bitset kernel; the block body is
//    dispatched at runtime to a portable, AVX2, or AVX-512 instantiation
//    (fault/srg_packed.hpp). Lanes are consumed in rank order, so neither
//    the width nor the chosen instantiation is observable in any result.
//
// The reference for both is fault/surviving.hpp: surviving_graph() builds
// R(G, rho)/F as a Digraph straight from the paper's definition, and
// surviving_diameter() runs BFS over it. It shares no strike, base rows or
// index with this layer, so the differential suite in
// tests/test_srg_kernels.cpp checks every Result field (diameter against
// its diameter, survivors against num_present(), arcs against num_arcs())
// of both kernels against it. The kernel, like thread count and batch
// size, therefore never leaks into any output.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/flat_array.hpp"
#include "fault/srg_packed.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// The smallest block of unrelated sets SrgScratch::evaluate_sets() hands
/// to the any-set packed kernel; smaller blocks run evaluate() set by set.
/// From bench_srg_kernels' random-block rows (planner torus(12,12),
/// f = 5): at every lane width from 128 to 512, a 64-set block costs about
/// what 64 bitset evaluations do, a 96-set block about three quarters, and
/// a full 512-set block about a fifth. Blocks never exceed the lane width,
/// so a 64-lane scratch (which only tests and benches pin) evaluates every
/// set on its own. Gray blocks keep their stored masks and are always
/// packed.
inline constexpr std::size_t kMinAnySetBlock = 96;

/// Immutable preprocessing of one routing table: its routes, the node ->
/// routes inverted index and the fault-free route graph as bitset rows.
/// Thread-safe to share by const reference across any number of SrgScratch
/// workers.
class SrgIndex {
 public:
  /// Shares the table's arrays and derives the rest; the index stays valid
  /// (and its results unchanged) after the table is destroyed.
  explicit SrgIndex(const RoutingTable& table);

  std::size_t num_nodes() const { return n_; }
  /// Directed routes preprocessed (multiroute tables count every parallel
  /// route; ordered pairs may share one arc).
  std::size_t num_routes() const { return route_pair_.size(); }
  std::size_t num_pairs() const { return pair_src_.size(); }

  /// The nodes of route `r` (< num_routes()): the table's route r, so
  /// routes of one ordered pair have consecutive ids, and pair ids follow
  /// the order of the pairs' first routes; in a table with one route per
  /// pair, route r is its r-th route in insertion order.
  PathView route(std::uint32_t r) const {
    return {route_nodes_.data() + route_off_[r],
            route_off_[r + 1] - route_off_[r]};
  }

  /// Ids of the ordered pairs whose target is `v`, by their shortest
  /// route (fewest nodes first, then ascending id): the in-adjacency the
  /// packed kernel's bottom-up BFS levels walk.
  std::span<const std::uint32_t> pairs_into(Node v) const {
    return {dst_pair_ids_.data() + dst_pair_off_[v],
            dst_pair_ids_.data() + dst_pair_off_[v + 1]};
  }

  /// Words per bitset row: ceil(num_nodes() / 64).
  std::size_t row_words() const { return row_words_; }

  /// The fault-free route graph as bitset rows: bit t of succ_row(s) (and
  /// bit s of pred_row(t)) is set iff the ordered pair (s, t) has a route.
  std::span<const std::uint64_t> succ_row(Node v) const {
    return {base_succ_.data() + std::size_t{v} * row_words_, row_words_};
  }
  std::span<const std::uint64_t> pred_row(Node v) const {
    return {base_pred_.data() + std::size_t{v} * row_words_, row_words_};
  }

  /// Footprint of the arrays the index derives (their capacities), for
  /// byte-accounted caches like the serving layer's table registry. The
  /// arrays it shares with its table are the table's to charge.
  std::size_t memory_bytes() const;

  /// Array-by-array equality (a loaded snapshot's index against the one
  /// built in memory).
  friend bool operator==(const SrgIndex&, const SrgIndex&) = default;

 private:
  friend class SrgScratch;

  // The node -> routes inverted index, O(arena).
  void build_node_routes();
  void build_dst_pairs();
  void build_base_rows();

  // All flat arrays, never mutated after construction. The first seven are
  // the table's own (aliasing a mapped snapshot when the table was loaded
  // from one): route r has nodes route_nodes_[route_off_[r] ..
  // route_off_[r + 1]); pair p is (pair_src_[p], pair_dst_[p]) with routes
  // [pair_route_off_[p], pair_route_off_[p + 1]), so its route count is
  // the difference; node v's pairs are src_pair_ids_[src_pair_off_[v] ..
  // src_pair_off_[v + 1]), by ascending target. src_pair_* and dst_pair_*
  // are the out- and in-adjacency the lane-parallel BFS walks top-down and
  // bottom-up, since in packed mode "arc" and "pair with a live route"
  // coincide.
  std::size_t n_ = 0;
  FlatArray<Node> route_nodes_;
  FlatArray<std::uint32_t> route_off_;
  FlatArray<Node> pair_src_;
  FlatArray<Node> pair_dst_;
  FlatArray<std::uint32_t> pair_route_off_;
  FlatArray<std::uint32_t> src_pair_off_;
  FlatArray<std::uint32_t> src_pair_ids_;
  FlatArray<std::uint32_t> route_pair_;      // route -> ordered-pair id
  FlatArray<std::uint32_t> node_route_off_;  // node -> routes through it
  FlatArray<std::uint32_t> node_route_ids_;
  FlatArray<std::uint32_t> dst_pair_off_;    // node -> pairs targeting it
  FlatArray<std::uint32_t> dst_pair_ids_;

  // Fault-free successor/predecessor rows, n * row_words_ words each; the
  // bitset kernel starts every struck set from a copy.
  std::size_t row_words_ = 0;
  FlatArray<std::uint64_t> base_succ_;
  FlatArray<std::uint64_t> base_pred_;
};

/// Per-worker mutable state for fault-set evaluation against a shared
/// SrgIndex. NOT thread-safe itself — each thread owns one scratch; the
/// index it references must outlive it.
class SrgScratch {
 public:
  explicit SrgScratch(const SrgIndex& index);

  const SrgIndex& index() const { return *index_; }
  std::size_t num_nodes() const { return index_->num_nodes(); }

  /// Pins the packed lane width (64/128/256/512) for the tests and benches
  /// that cover every LaneBlock<W> instantiation; 0 (the default) resolves
  /// at first use via ftr::resolve_lane_width(0), the widest width the CPU
  /// supports. Only packed-block throughput is affected — results
  /// are bit-identical at every width. Changing the width mid-stream is
  /// legal between blocks (the packed state is re-sized lazily).
  void set_lane_width(unsigned lanes);

  /// Test-only pin next to set_lane_width(): resolves the packed block body
  /// through `lookup` (one of packed::packed_block_fn_{portable,avx2,
  /// avx512}) instead of packed::select_block_fn(), so a host can check
  /// every instantiation its CPU runs, not just the strongest. nullptr
  /// restores the default. The caller must pin only an ISA the CPU
  /// supports; a lookup with no body for the width fails the next block.
  void set_block_lookup_for_testing(packed::PackedBlockLookup lookup);

  /// The resolved lanes-per-block (64/128/256/512) the next packed block
  /// will use; resolves auto on first call.
  unsigned lane_width();

  struct Result {
    std::uint32_t diameter = 0;  // kUnreachable if some pair cannot route
    std::uint32_t survivors = 0;
    std::uint32_t arcs = 0;
  };

  /// Evaluates one fault set. Repeated calls reuse all scratch state; fault
  /// ids must be < num_nodes() (duplicates are tolerated).
  Result evaluate(std::span<const Node> faults);

  /// diam R(G, rho)/F — the batched counterpart of ftr::surviving_diameter.
  std::uint32_t surviving_diameter(std::span<const Node> faults);

  /// Worst finite surviving-route distance over ordered survivor pairs that
  /// share a class in `comp` (one id per node of the underlying graph);
  /// kUnreachable if some same-class pair cannot route. Used by the
  /// componentwise recovery metric (Section 7, open problem 3).
  std::uint32_t componentwise_diameter(std::span<const Node> faults,
                                       std::span<const std::uint32_t> comp);

  // --- delivery on the current fault set ----------------------------------
  //
  // Both calls read the fault set most recently stamped by set_faults(),
  // evaluate() or componentwise_diameter() (one must have run since
  // construction or reset()); the packed block calls do not move it. They
  // need only the fault stamps, never a strike or bitset rows. Their spans
  // stay valid until the next call of the same method.

  /// Stamps `faults` as the current set for last_survivors() and
  /// route_path(), and nothing else: no route is struck and no diameter is
  /// computed. Ids must be < num_nodes() (duplicates are tolerated).
  void set_faults(std::span<const Node> faults);

  /// Survivors of the current set, ascending.
  std::span<const Node> last_survivors();

  /// A fewest-arc path s -> t in the surviving route graph of the current
  /// set: s, ..., t (just s when s == t), or empty when t is unreachable.
  /// An arc u -> v is live when some route of the pair avoids every
  /// stamped fault. The path is the one a FIFO BFS finds when it walks
  /// each dequeued node's live successors in ascending node order (a node's
  /// parent is the first dequeued node with an arc to it — the same tree
  /// as a BFS over a Digraph's sorted successor lists). The direct arc and
  /// the lowest two-arc detour are tried before the BFS, since they are
  /// what it would find first. Both endpoints must survive.
  /// Allocation-free after warm-up.
  std::span<const Node> route_path(Node s, Node t);

  /// The routes the last route_path() took, one per arc in path order:
  /// each is the first route of its pair, in the pair's route order, that
  /// avoids every stamped fault (index route ids; empty when no path).
  std::span<const std::uint32_t> path_routes() const { return path_routes_; }

  // --- packed wide-lane Gray mode ------------------------------------------

  /// Evaluates `count` (1..lane_width()) CONSECUTIVE revolving-door fault
  /// sets in one bit-parallel pass: out[i] is exactly what evaluate() would
  /// return on the i-th set. The enumerator must be positioned on the first
  /// set of the block over this index's node universe; the call advances it
  /// by count - 1 steps (so the caller advances once more between blocks).
  /// Independent of the epoch-stamped state — interleaving with evaluate()
  /// is safe.
  void evaluate_gray_block(GraySubsetEnumerator& e, std::size_t count,
                           Result* out);

  /// Evaluates any 1..lane_width() fault sets in one bit-parallel pass:
  /// out[i] is exactly what evaluate() would return on sets[i]. The sets
  /// need not be related; each may hold any number of ids < num_nodes()
  /// (duplicates are tolerated). Stores no per-route or per-pair masks, and
  /// like evaluate_gray_block() leaves the epoch-stamped state alone.
  void evaluate_block(std::span<const std::vector<Node>> sets, Result* out);

  /// Evaluates any number of unrelated fault sets: out[i] is exactly what
  /// evaluate() would return on sets[i]. The sets are cut into blocks of
  /// lane_width() in order; a block of at least kMinAnySetBlock sets runs
  /// through evaluate_block(), a shorter one (the tail, or every block of
  /// a 64-lane scratch) through evaluate() set by set. The current fault
  /// set of last_survivors()/route_path() is therefore unspecified
  /// afterwards: delivery callers stamp each set with set_faults().
  void evaluate_sets(std::span<const std::vector<Node>> sets, Result* out);

  /// Zeroes every stamp array and restarts the epoch counter. Evaluation
  /// results never depend on it (the wrap path below does the same lazily);
  /// exposed so long-lived servers can re-zero scratch at a quiet moment
  /// instead of inside a request.
  void reset();

  /// Test hook for the 2^32 epoch wraparound: plants the counter just
  /// below `epoch` so a handful of evaluations crosses the wrap. Stamps are
  /// re-zeroed, so behavior stays exactly as after reset().
  void set_epochs_for_testing(std::uint32_t epoch);

 private:
  // Starts a fault set: bumps epoch_ (re-zeroing the stamps on wrap) and
  // invalidates the previous set's bitset rows.
  void next_epoch();
  // Stamps the faults and the routes through them, and lists the pairs
  // whose last route died (dead_pairs_). Touches only routes through the
  // faults; sizes the route/pair stamps on first use. Returns the number
  // of survivors.
  std::uint32_t strike(std::span<const Node> faults);
  // Delivery's arc test against the fault stamps alone: the first route of
  // pair `pid` (of the ordered pair u -> v) that avoids every stamped
  // fault, or kNoLiveRoute.
  static constexpr std::uint32_t kNoLiveRoute = ~std::uint32_t{0};
  std::uint32_t live_route(std::uint32_t pid) const;
  std::uint32_t arc_route(Node u, Node v) const;

  // Builds the struck set's succ/pred/alive bitmaps: the index's base rows
  // with the dead pairs' bits cleared. Lazy, once per strike.
  void ensure_bits();
  // Direction-optimizing bitset BFS over the succ/pred/alive bitmaps
  // ensure_bits() built. Returns the eccentricity among reached survivors,
  // stores the reached count, and leaves visited_bits_ (and dist_, when
  // fill_dist) describing the traversal.
  std::uint32_t bfs_from_bits(std::uint32_t survivors, Node s,
                              std::uint32_t* reached_out, bool fill_dist);
  // Sizes the packed state for the resolved width; the stored route/pair
  // masks only when a Gray block needs them.
  void ensure_packed_state(bool gray);
  // Phase (a) helper: marks v faulty in `lane`, listing v in lane_touched_
  // on its first lane; false when it already was (a duplicate id).
  bool mark_lane_fault(Node v, std::size_t lane);
  // Zeroes the lanes marked so far, before a contract failure mid-walk.
  void clear_lane_marks();
  // Phases (b)-(d) on the marked lanes, then the per-lane Results.
  // survivors[l] is lane l's survivor count.
  void run_packed_block(std::size_t count, const std::uint32_t* survivors,
                        bool gray, Result* out);

  const SrgIndex* index_;

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> fault_stamp_;
  std::vector<std::uint32_t> route_stamp_;  // sized by the first strike()
  std::vector<std::uint32_t> pair_stamp_;  // pair touched this epoch
  std::vector<std::uint32_t> pair_live_;   // its live routes, if touched
  std::vector<std::uint32_t> dead_pairs_;  // pairs with no live route left

  std::vector<std::uint32_t> dist_;  // componentwise_diameter()'s levels
  std::vector<Node> queue_;          // route_path()'s BFS queue

  // Delivery buffers (last_survivors() / route_path()).
  std::vector<Node> survivor_list_;
  std::vector<Node> parent_;
  std::vector<std::uint32_t> parent_route_;  // the route parent_[v] -> v
  std::vector<Node> path_;
  std::vector<std::uint32_t> path_routes_;

  // Bitset-kernel state. words_ = ceil(n / 64); succ/pred rows are n *
  // words_ bitmaps, copied from the index's base rows lazily per strike.
  std::size_t words_ = 0;
  bool bits_valid_ = false;
  std::vector<std::uint64_t> succ_bits_;      // n * words_ (lazy)
  std::vector<std::uint64_t> pred_bits_;      // n * words_ (lazy)
  std::vector<std::uint64_t> alive_bits_;     // words_
  std::vector<std::uint64_t> visited_bits_;   // words_, per BFS
  std::vector<std::uint64_t> frontier_bits_;  // words_
  std::vector<std::uint64_t> next_bits_;      // words_

  // Packed-kernel state (lazy; pk_words_ uint64_t of lanes per node/route/
  // pair — entity i owns words [i*W, (i+1)*W)). The mask arrays are all-
  // zero between blocks (the kernel's sparse cleanup restores that), so a
  // width change only needs a re-size. pk_fn_ is the runtime-dispatched
  // block body (portable/AVX2/AVX-512) pk_lookup_ gave the resolved width.
  unsigned pk_requested_lanes_ = 0;  // set_lane_width() request; 0 = auto
  unsigned pk_lanes_ = 0;            // resolved lanes per block; 0 = not yet
  unsigned pk_words_ = 0;            // pk_lanes_ / 64, once sized
  bool pk_gray_ready_ = false;       // Gray-only arrays sized for pk_words_
  packed::PackedBlockLookup pk_lookup_ = &packed::select_block_fn;
  packed::PackedBlockFn pk_fn_ = nullptr;
  std::vector<std::uint64_t> lane_node_mask_;  // node -> lanes where faulty
  std::vector<Node> lane_touched_;
  // Gray blocks only (any-set blocks never size them):
  std::vector<std::uint64_t> route_kill_mask_;  // route -> lanes killed
  std::vector<std::uint32_t> pk_dirty_routes_;
  std::vector<std::uint64_t> pair_dead_mask_;  // pair -> lanes with 0 routes
  std::vector<std::uint8_t> pair_dirty_;
  std::vector<std::uint32_t> pk_dirty_pairs_;
  std::vector<std::uint64_t> pk_visited_;   // node -> lanes reached
  std::vector<std::uint64_t> pk_new_;       // node -> lanes newly reached
  std::vector<std::uint64_t> pk_next_mask_;
  std::vector<Node> pk_frontier_;
  std::vector<Node> pk_next_;
  std::vector<Node> pk_members_;  // current Gray set during the lane walk
  std::vector<std::uint32_t> pk_dead_pairs_;    // per-lane outputs (64*W)
  std::vector<std::uint32_t> pk_diam_;          // 64*W
  std::vector<std::uint64_t> pk_disconnected_;  // W words
  std::vector<std::uint64_t> pk_level_grew_;    // (n+1)*W per-level masks
  std::vector<std::uint64_t> pk_diam_ge_;       // (n+1)*W
};

}  // namespace ftr
