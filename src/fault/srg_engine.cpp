#include "fault/srg_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "graph/bfs.hpp"

namespace ftr {

namespace {
constexpr std::size_t kLaneBits = 64;

std::size_t bit_words(std::size_t n) { return (n + kLaneBits - 1) / kLaneBits; }
}  // namespace

SrgIndex::SrgIndex(const RoutingTable& table)
    : n_(table.num_nodes()),
      route_nodes_(table.arena_),
      route_off_(table.route_off_),
      pair_src_(table.pair_src_),
      pair_dst_(table.pair_dst_),
      pair_route_off_(table.pair_route_off_),
      src_pair_off_(table.src_pair_off_),
      src_pair_ids_(table.src_pair_ids_) {
  std::vector<std::uint32_t> route_pair(table.num_routes());
  for (std::uint32_t pid = 0; pid < num_pairs(); ++pid) {
    std::fill(route_pair.begin() + pair_route_off_[pid],
              route_pair.begin() + pair_route_off_[pid + 1], pid);
  }
  route_pair_ = FlatArray<std::uint32_t>(std::move(route_pair));
  build_node_routes();
  build_dst_pairs();
  build_base_rows();
}

void SrgIndex::build_node_routes() {
  // Inverted index: node -> ids of routes whose path contains it (endpoints
  // included, so an endpoint fault kills the route like any interior fault).
  std::vector<std::uint32_t> off(n_ + 1, 0);
  for (Node v : route_nodes_) ++off[v + 1];
  for (std::size_t i = 1; i <= n_; ++i) off[i] += off[i - 1];
  std::vector<std::uint32_t> ids(route_nodes_.size());
  std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    for (Node v : route(r)) ids[cursor[v]++] = r;
  }
  node_route_off_ = FlatArray<std::uint32_t>(std::move(off));
  node_route_ids_ = FlatArray<std::uint32_t>(std::move(ids));
}

void SrgIndex::build_dst_pairs() {
  // Same counting sort keyed by target: the in-adjacency the bottom-up
  // levels of the lane-parallel BFS walk. A bottom-up node stops walking
  // its in-pairs once every lane it misses is found, and a short route is
  // the likeliest to be live, so each target lists its in-pairs by their
  // shortest route (fewest nodes first, then by id): a stable counting sort
  // by length, then a stable one by target.
  const std::size_t num_pairs = pair_src_.size();
  std::vector<std::uint32_t> len(num_pairs);
  std::uint32_t max_len = 0;
  for (std::uint32_t pid = 0; pid < num_pairs; ++pid) {
    std::uint32_t best = UINT32_MAX;
    for (std::uint32_t r = pair_route_off_[pid]; r < pair_route_off_[pid + 1];
         ++r) {
      best = std::min(best, route_off_[r + 1] - route_off_[r]);
    }
    len[pid] = best;
    max_len = std::max(max_len, best);
  }
  std::vector<std::uint32_t> cursor(std::size_t{max_len} + 2, 0);
  for (std::uint32_t l : len) ++cursor[l + 1];
  for (std::size_t i = 1; i < cursor.size(); ++i) cursor[i] += cursor[i - 1];
  std::vector<std::uint32_t> by_len(num_pairs);
  for (std::uint32_t pid = 0; pid < num_pairs; ++pid) {
    by_len[cursor[len[pid]]++] = pid;
  }
  std::vector<std::uint32_t> dst_off(n_ + 1, 0);
  for (Node t : pair_dst_) ++dst_off[t + 1];
  for (std::size_t i = 1; i <= n_; ++i) dst_off[i] += dst_off[i - 1];
  std::vector<std::uint32_t> dst_ids(num_pairs);
  cursor.assign(dst_off.begin(), dst_off.end() - 1);
  for (std::uint32_t pid : by_len) dst_ids[cursor[pair_dst_[pid]]++] = pid;
  dst_pair_off_ = FlatArray<std::uint32_t>(std::move(dst_off));
  dst_pair_ids_ = FlatArray<std::uint32_t>(std::move(dst_ids));
}

void SrgIndex::build_base_rows() {
  row_words_ = bit_words(n_);
  std::vector<std::uint64_t> succ(n_ * row_words_, 0);
  std::vector<std::uint64_t> pred(n_ * row_words_, 0);
  for (std::uint32_t pid = 0; pid < num_pairs(); ++pid) {
    const Node s = pair_src_[pid];
    const Node t = pair_dst_[pid];
    succ[s * row_words_ + (t >> 6)] |= std::uint64_t{1} << (t & 63);
    pred[t * row_words_ + (s >> 6)] |= std::uint64_t{1} << (s & 63);
  }
  base_succ_ = FlatArray<std::uint64_t>(std::move(succ));
  base_pred_ = FlatArray<std::uint64_t>(std::move(pred));
}

std::size_t SrgIndex::memory_bytes() const {
  return route_pair_.memory_bytes() + node_route_off_.memory_bytes() +
         node_route_ids_.memory_bytes() + dst_pair_off_.memory_bytes() +
         dst_pair_ids_.memory_bytes() + base_succ_.memory_bytes() +
         base_pred_.memory_bytes();
}

SrgScratch::SrgScratch(const SrgIndex& index) : index_(&index) {
  const std::size_t n = index.n_;
  // The per-route and per-pair strike state is sized by the first strike(),
  // so a scratch that only runs packed blocks and delivery never holds it.
  fault_stamp_.assign(n, 0);
  dist_.assign(n, 0);
  queue_.reserve(n);
  parent_.assign(n, 0);
  parent_route_.assign(n, 0);
  words_ = index.row_words_;
  visited_bits_.assign(words_, 0);
  frontier_bits_.assign(words_, 0);
  next_bits_.assign(words_, 0);
}

void SrgScratch::reset() {
  std::fill(fault_stamp_.begin(), fault_stamp_.end(), 0);
  std::fill(route_stamp_.begin(), route_stamp_.end(), 0);
  std::fill(pair_stamp_.begin(), pair_stamp_.end(), 0);
  epoch_ = 0;
  bits_valid_ = false;
}

void SrgScratch::set_epochs_for_testing(std::uint32_t epoch) {
  reset();
  epoch_ = epoch;
}

void SrgScratch::next_epoch() {
  ++epoch_;
  if (epoch_ == 0) {
    // Stamp wrap, once per 2^32 fault sets: a stale stamp from the previous
    // counter era could otherwise collide with a fresh epoch value. Re-zero
    // every strike-side stamp and restart the counter above the zeroes.
    std::fill(fault_stamp_.begin(), fault_stamp_.end(), 0);
    std::fill(route_stamp_.begin(), route_stamp_.end(), 0);
    std::fill(pair_stamp_.begin(), pair_stamp_.end(), 0);
    epoch_ = 1;
  }
  bits_valid_ = false;  // this set's rows are rebuilt on demand
}

void SrgScratch::set_faults(std::span<const Node> faults) {
  next_epoch();
  const std::size_t n = index_->n_;
  for (Node f : faults) {
    FTR_EXPECTS_MSG(f < n, "fault " << f << " out of range");
    fault_stamp_[f] = epoch_;
  }
}

std::uint32_t SrgScratch::strike(std::span<const Node> faults) {
  const SrgIndex& ix = *index_;
  if (route_stamp_.size() != ix.num_routes()) {
    route_stamp_.assign(ix.num_routes(), 0);
    pair_stamp_.assign(ix.num_pairs(), 0);
    pair_live_.assign(ix.num_pairs(), 0);
    dead_pairs_.reserve(ix.num_pairs());
  }
  next_epoch();
  dead_pairs_.clear();
  auto survivors = static_cast<std::uint32_t>(ix.n_);
  for (Node f : faults) {
    FTR_EXPECTS_MSG(f < ix.n_, "fault " << f << " out of range");
    if (fault_stamp_[f] == epoch_) continue;  // duplicate fault id
    fault_stamp_[f] = epoch_;
    --survivors;
    for (std::uint32_t i = ix.node_route_off_[f]; i < ix.node_route_off_[f + 1];
         ++i) {
      const std::uint32_t r = ix.node_route_ids_[i];
      if (route_stamp_[r] == epoch_) continue;  // killed by an earlier fault
      route_stamp_[r] = epoch_;
      // A pair's live-route count is loaded on first touch this epoch; the
      // pair dies with its last route.
      const std::uint32_t pid = ix.route_pair_[r];
      if (pair_stamp_[pid] != epoch_) {
        pair_stamp_[pid] = epoch_;
        pair_live_[pid] = ix.pair_route_off_[pid + 1] - ix.pair_route_off_[pid];
      }
      if (--pair_live_[pid] == 0) dead_pairs_.push_back(pid);
    }
  }
  return survivors;
}

void SrgScratch::ensure_bits() {
  if (bits_valid_) return;
  const SrgIndex& ix = *index_;
  const std::size_t n = ix.n_;
  const std::size_t W = words_;
  if (succ_bits_.empty()) {
    succ_bits_.resize(n * W);
    pred_bits_.resize(n * W);
    alive_bits_.resize(W);
  }
  // The fault-free rows minus the pairs this strike killed. Every route
  // holds its endpoints, so a faulty node's pairs are all dead and its rows
  // and columns come out empty.
  std::copy_n(ix.base_succ_.data(), n * W, succ_bits_.data());
  std::copy_n(ix.base_pred_.data(), n * W, pred_bits_.data());
  for (std::uint32_t pid : dead_pairs_) {
    const Node src = ix.pair_src_[pid];
    const Node dst = ix.pair_dst_[pid];
    succ_bits_[src * W + (dst >> 6)] &= ~(std::uint64_t{1} << (dst & 63));
    pred_bits_[dst * W + (src >> 6)] &= ~(std::uint64_t{1} << (src & 63));
  }
  std::fill(alive_bits_.begin(), alive_bits_.end(), 0);
  for (Node v = 0; v < n; ++v) {
    if (fault_stamp_[v] != epoch_) {
      alive_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
  bits_valid_ = true;
}

std::uint32_t SrgScratch::bfs_from_bits(std::uint32_t survivors, Node s,
                                        std::uint32_t* reached_out,
                                        bool fill_dist) {
  const std::size_t W = words_;
  const std::uint64_t* succ = succ_bits_.data();
  const std::uint64_t* pred = pred_bits_.data();
  const std::uint64_t* alive = alive_bits_.data();
  std::fill_n(visited_bits_.data(), W, 0);
  std::fill_n(frontier_bits_.data(), W, 0);
  const std::uint64_t sbit = std::uint64_t{1} << (s & 63);
  visited_bits_[s >> 6] = sbit;
  frontier_bits_[s >> 6] = sbit;
  if (fill_dist) dist_[s] = 0;
  std::uint32_t reached = 1;
  std::uint32_t ecc = 0;
  std::uint32_t level = 0;
  std::uint32_t frontier_count = 1;
  while (frontier_count > 0 && reached < survivors) {
    ++level;
    const std::uint32_t unvisited = survivors - reached;
    // Direction switch on frontier density: top-down ORs one succ row per
    // frontier node; bottom-up probes each unvisited survivor's pred row
    // against the frontier (with early exit), which wins once the frontier
    // is a sizable fraction of what is left — the common regime here, since
    // surviving route graphs are near-complete. The reached SET is
    // direction-invariant, so the choice never changes any result.
    const bool bottom_up =
        static_cast<std::uint64_t>(frontier_count) * 4 >= unvisited;
    if (bottom_up) {
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t cand = alive[w] & ~visited_bits_[w];
        std::uint64_t add = 0;
        while (cand != 0) {
          const int b = std::countr_zero(cand);
          cand &= cand - 1;
          const std::uint64_t* row = pred + (w * kLaneBits + b) * W;
          for (std::size_t ww = 0; ww < W; ++ww) {
            if ((row[ww] & frontier_bits_[ww]) != 0) {
              add |= std::uint64_t{1} << b;
              break;
            }
          }
        }
        next_bits_[w] = add;
      }
    } else {
      std::fill_n(next_bits_.data(), W, 0);
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t fm = frontier_bits_[w];
        while (fm != 0) {
          const int b = std::countr_zero(fm);
          fm &= fm - 1;
          const std::uint64_t* row = succ + (w * kLaneBits + b) * W;
          for (std::size_t ww = 0; ww < W; ++ww) next_bits_[ww] |= row[ww];
        }
      }
      for (std::size_t w = 0; w < W; ++w) next_bits_[w] &= ~visited_bits_[w];
    }
    std::uint32_t grew = 0;
    for (std::size_t w = 0; w < W; ++w) {
      visited_bits_[w] |= next_bits_[w];
      grew += static_cast<std::uint32_t>(std::popcount(next_bits_[w]));
    }
    if (grew == 0) break;
    reached += grew;
    ecc = level;
    if (fill_dist) {
      for (std::size_t w = 0; w < W; ++w) {
        std::uint64_t m = next_bits_[w];
        while (m != 0) {
          const int b = std::countr_zero(m);
          m &= m - 1;
          dist_[w * kLaneBits + b] = level;
        }
      }
    }
    frontier_bits_.swap(next_bits_);
    frontier_count = grew;
  }
  if (reached_out != nullptr) *reached_out = reached;
  return ecc;
}

SrgScratch::Result SrgScratch::evaluate(std::span<const Node> faults) {
  const std::uint32_t survivors = strike(faults);
  Result res;
  res.survivors = survivors;
  res.arcs =
      static_cast<std::uint32_t>(index_->num_pairs() - dead_pairs_.size());
  if (survivors <= 1) return res;  // diameter 0 by convention
  ensure_bits();
  std::uint32_t diam = 0;
  for (Node s = 0; s < index_->n_; ++s) {
    if (fault_stamp_[s] == epoch_) continue;
    std::uint32_t reached = 0;
    const std::uint32_t ecc = bfs_from_bits(survivors, s, &reached, false);
    if (reached < survivors) {
      res.diameter = kUnreachable;
      return res;
    }
    diam = std::max(diam, ecc);
  }
  res.diameter = diam;
  return res;
}

std::uint32_t SrgScratch::surviving_diameter(std::span<const Node> faults) {
  return evaluate(faults).diameter;
}

// --- packed wide-lane Gray mode ----------------------------------------------
//
// The W-word block body itself lives in fault/srg_packed_impl.hpp,
// instantiated per ISA (portable/-mavx2/-mavx512f) and dispatched at
// runtime — this file only resolves the width, sizes the W-strided
// scratch, walks the enumerator (phase a), and translates the kernel's
// per-lane outputs back into Results.

void SrgScratch::set_lane_width(unsigned lanes) {
  FTR_EXPECTS_MSG(lanes == 0 || is_valid_lane_width(lanes),
                  "lane width " << lanes << " is not auto/64/128/256/512");
  if (lanes == pk_requested_lanes_ && pk_lanes_ != 0) return;
  pk_requested_lanes_ = lanes;
  pk_lanes_ = 0;  // re-resolve (and re-size the packed state) on next use
}

void SrgScratch::set_block_lookup_for_testing(
    packed::PackedBlockLookup lookup) {
  pk_lookup_ = lookup != nullptr ? lookup : &packed::select_block_fn;
  pk_lanes_ = 0;  // re-resolve pk_fn_ on next use
}

unsigned SrgScratch::lane_width() {
  if (pk_lanes_ == 0) {
    pk_lanes_ = resolve_lane_width(pk_requested_lanes_);
    pk_fn_ = pk_lookup_(pk_lanes_ / kLaneBits);
    FTR_EXPECTS_MSG(pk_fn_ != nullptr, "no packed block body for "
                                           << pk_lanes_ << " lanes");
  }
  return pk_lanes_;
}

void SrgScratch::ensure_packed_state(bool gray) {
  const unsigned words = lane_width() / kLaneBits;
  const SrgIndex& ix = *index_;
  const std::size_t w = words;
  if (pk_words_ != words || lane_node_mask_.empty()) {
    lane_node_mask_.assign(ix.n_ * w, 0);
    pk_visited_.assign(ix.n_ * w, 0);
    pk_new_.assign(ix.n_ * w, 0);
    pk_next_mask_.assign(ix.n_ * w, 0);
    // The dispatched kernel fills these through raw pointers, so they are
    // sized (not just reserved) to their capacity contracts.
    pk_frontier_.assign(ix.n_, 0);
    pk_next_.assign(ix.n_, 0);
    pk_dead_pairs_.assign(kLaneBits * w, 0);
    pk_diam_.assign(kLaneBits * w, 0);
    pk_disconnected_.assign(w, 0);
    pk_level_grew_.assign((ix.n_ + 1) * w, 0);
    pk_diam_ge_.assign((ix.n_ + 1) * w, 0);
    pk_words_ = words;
    pk_gray_ready_ = false;
  }
  if (gray && !pk_gray_ready_) {
    // Stored route/pair masks: only Gray blocks read them.
    route_kill_mask_.assign(ix.num_routes() * w, 0);
    pair_dead_mask_.assign(ix.num_pairs() * w, 0);
    pair_dirty_.assign(ix.num_pairs(), 0);
    pk_dirty_routes_.assign(ix.num_routes(), 0);
    pk_dirty_pairs_.assign(ix.num_pairs(), 0);
    pk_gray_ready_ = true;
  }
}

// Marks `v` faulty in lane `lane` of the block being filled; returns false
// when it already was (a duplicate id).
bool SrgScratch::mark_lane_fault(Node v, std::size_t lane) {
  const unsigned W = pk_words_;
  std::uint64_t* block = lane_node_mask_.data() + std::size_t{v} * W;
  const std::uint64_t bit = std::uint64_t{1} << (lane % kLaneBits);
  if ((block[lane / kLaneBits] & bit) != 0) return false;
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < W; ++i) seen |= block[i];
  if (seen == 0) lane_touched_.push_back(v);
  block[lane / kLaneBits] |= bit;
  return true;
}

void SrgScratch::clear_lane_marks() {
  for (Node v : lane_touched_) {
    std::fill_n(lane_node_mask_.data() + std::size_t{v} * pk_words_, pk_words_,
                0);
  }
  lane_touched_.clear();
}

void SrgScratch::run_packed_block(std::size_t count,
                                  const std::uint32_t* survivors, bool gray,
                                  Result* out) {
  const SrgIndex& ix = *index_;
  packed::PackedCtx ctx;
  ctx.n = ix.n_;
  ctx.num_pairs = ix.num_pairs();
  ctx.node_route_off = ix.node_route_off_.data();
  ctx.node_route_ids = ix.node_route_ids_.data();
  ctx.route_pair = ix.route_pair_.data();
  ctx.pair_route_off = ix.pair_route_off_.data();
  ctx.pair_src = ix.pair_src_.data();
  ctx.pair_dst = ix.pair_dst_.data();
  ctx.src_pair_off = ix.src_pair_off_.data();
  ctx.src_pair_ids = ix.src_pair_ids_.data();
  ctx.dst_pair_off = ix.dst_pair_off_.data();
  ctx.dst_pair_ids = ix.dst_pair_ids_.data();
  ctx.route_off = ix.route_off_.data();
  ctx.route_nodes = ix.route_nodes_.data();
  ctx.any_sets = !gray;
  ctx.lane_node_mask = lane_node_mask_.data();
  if (gray) {
    ctx.route_kill_mask = route_kill_mask_.data();
    ctx.pair_dead_mask = pair_dead_mask_.data();
    ctx.pair_dirty = pair_dirty_.data();
    ctx.dirty_routes = pk_dirty_routes_.data();
    ctx.dirty_pairs = pk_dirty_pairs_.data();
  }
  ctx.visited = pk_visited_.data();
  ctx.new_mask = pk_new_.data();
  ctx.next_mask = pk_next_mask_.data();
  ctx.lane_touched = lane_touched_.data();
  ctx.lane_touched_count = lane_touched_.size();
  ctx.frontier = pk_frontier_.data();
  ctx.next = pk_next_.data();
  ctx.dead_pairs = pk_dead_pairs_.data();
  ctx.diam = pk_diam_.data();
  ctx.disconnected = pk_disconnected_.data();
  ctx.level_grew = pk_level_grew_.data();
  ctx.diam_ge = pk_diam_ge_.data();
  const std::uint32_t most = *std::max_element(survivors, survivors + count);
  pk_fn_(ctx, count, most);
  lane_touched_.clear();

  for (std::size_t lane = 0; lane < count; ++lane) {
    out[lane].survivors = survivors[lane];
    out[lane].arcs =
        static_cast<std::uint32_t>(ix.num_pairs()) - pk_dead_pairs_[lane];
    const bool disconnected =
        ((pk_disconnected_[lane / kLaneBits] >> (lane % kLaneBits)) & 1) != 0;
    out[lane].diameter = survivors[lane] <= 1 ? 0
                         : disconnected       ? kUnreachable
                                              : pk_diam_[lane];
  }
}

void SrgScratch::evaluate_gray_block(GraySubsetEnumerator& e,
                                     std::size_t count, Result* out) {
  ensure_packed_state(/*gray=*/true);
  FTR_EXPECTS(count >= 1 && count <= std::size_t{kLaneBits} * pk_words_);
  FTR_EXPECTS_MSG(e.valid(), "enumerator exhausted before the block");
  const std::size_t n = index_->n_;

  // (a) Lane membership: walk the count-1 revolving-door transitions once,
  // accumulating per-node masks of the lanes in which the node is faulty.
  // A contract failure mid-walk first erases the lanes marked so far, so
  // the masks stay all-zero between blocks.
  const auto& first = e.current();
  pk_members_.assign(first.begin(), first.end());
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (lane > 0) {
      const bool ok = e.advance();
      if (!ok) clear_lane_marks();
      FTR_EXPECTS_MSG(ok, "enumeration ended inside a packed block");
      const GrayTransition& t = e.last_transition();
      for (Node& m : pk_members_) {
        if (m == static_cast<Node>(t.out)) {
          m = static_cast<Node>(t.in);
          break;
        }
      }
    }
    for (Node v : pk_members_) {
      if (v >= n) clear_lane_marks();
      FTR_EXPECTS_MSG(v < n, "fault " << v << " out of range");
      mark_lane_fault(v, lane);
    }
  }
  std::uint32_t survivors[kMaxLaneWidth];
  std::fill_n(survivors, count, static_cast<std::uint32_t>(n - first.size()));
  run_packed_block(count, survivors, /*gray=*/true, out);
}

void SrgScratch::evaluate_block(std::span<const std::vector<Node>> sets,
                                Result* out) {
  ensure_packed_state(/*gray=*/false);
  const std::size_t count = sets.size();
  FTR_EXPECTS(count >= 1 && count <= std::size_t{kLaneBits} * pk_words_);
  const std::size_t n = index_->n_;
  for (const auto& set : sets) {
    for (Node v : set) FTR_EXPECTS_MSG(v < n, "fault " << v << " out of range");
  }
  // (a) Lane membership straight from each lane's set; a duplicate id
  // marks nothing new and costs no survivor.
  std::uint32_t survivors[kMaxLaneWidth];
  for (std::size_t lane = 0; lane < count; ++lane) {
    auto alive = static_cast<std::uint32_t>(n);
    for (Node v : sets[lane]) alive -= mark_lane_fault(v, lane) ? 1 : 0;
    survivors[lane] = alive;
  }
  run_packed_block(count, survivors, /*gray=*/false, out);
}

void SrgScratch::evaluate_sets(std::span<const std::vector<Node>> sets,
                               Result* out) {
  const std::size_t lanes = lane_width();
  for (std::size_t at = 0; at < sets.size(); at += lanes) {
    const auto block = sets.subspan(at, std::min(lanes, sets.size() - at));
    if (block.size() >= kMinAnySetBlock) {
      evaluate_block(block, out + at);
    } else {
      for (std::size_t i = 0; i < block.size(); ++i) {
        out[at + i] = evaluate(block[i]);
      }
    }
  }
}

std::uint32_t SrgScratch::componentwise_diameter(
    std::span<const Node> faults, std::span<const std::uint32_t> comp) {
  FTR_EXPECTS(comp.size() == index_->n_);
  const std::uint32_t survivors = strike(faults);
  if (survivors <= 1) return 0;
  // A BFS from every survivor: reachability answered from the visited
  // bitmap, distances from the per-level dist_ fill.
  ensure_bits();
  std::uint32_t worst = 0;
  for (Node s = 0; s < index_->n_; ++s) {
    if (fault_stamp_[s] == epoch_) continue;
    bfs_from_bits(survivors, s, nullptr, /*fill_dist=*/true);
    for (Node t = 0; t < index_->n_; ++t) {
      if (t == s || fault_stamp_[t] == epoch_ || comp[t] != comp[s]) continue;
      if ((visited_bits_[t >> 6] & (std::uint64_t{1} << (t & 63))) == 0) {
        return kUnreachable;
      }
      worst = std::max(worst, dist_[t]);
    }
  }
  return worst;
}

std::span<const Node> SrgScratch::last_survivors() {
  FTR_EXPECTS_MSG(epoch_ != 0,
                  "no fault set yet: call set_faults() or evaluate() first");
  survivor_list_.clear();
  for (Node v = 0; v < index_->n_; ++v) {
    if (fault_stamp_[v] != epoch_) survivor_list_.push_back(v);
  }
  return survivor_list_;
}

std::uint32_t SrgScratch::live_route(std::uint32_t pid) const {
  const SrgIndex& ix = *index_;
  for (std::uint32_t r = ix.pair_route_off_[pid];
       r < ix.pair_route_off_[pid + 1]; ++r) {
    const PathView path = ix.route(r);
    if (std::none_of(path.begin(), path.end(),
                     [&](Node v) { return fault_stamp_[v] == epoch_; })) {
      return r;
    }
  }
  return kNoLiveRoute;
}

std::uint32_t SrgScratch::arc_route(Node u, Node v) const {
  const SrgIndex& ix = *index_;
  // u's pairs are sorted by target.
  const std::uint32_t* first = ix.src_pair_ids_.data() + ix.src_pair_off_[u];
  const std::uint32_t* last = ix.src_pair_ids_.data() + ix.src_pair_off_[u + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, v,
      [&ix](std::uint32_t pid, Node t) { return ix.pair_dst_[pid] < t; });
  if (it == last || ix.pair_dst_[*it] != v) return kNoLiveRoute;
  return live_route(*it);
}

std::span<const Node> SrgScratch::route_path(Node s, Node t) {
  FTR_EXPECTS_MSG(epoch_ != 0,
                  "no fault set yet: call set_faults() or evaluate() first");
  const SrgIndex& ix = *index_;
  const std::size_t n = ix.n_;
  FTR_EXPECTS_MSG(s < n && t < n && fault_stamp_[s] != epoch_ &&
                      fault_stamp_[t] != epoch_,
                  "route_path endpoints " << s << " -> " << t
                                          << " must both survive");
  path_.clear();
  path_routes_.clear();
  if (s == t) {
    path_.push_back(s);
    return path_;
  }
  // Shortcuts for the BFS below. One arc: the direct pair. Two arcs: the
  // BFS dequeues s's live successors in ascending order, so t's parent is
  // the lowest u with both s -> u and u -> t live.
  if (const std::uint32_t r = arc_route(s, t); r != kNoLiveRoute) {
    path_.assign({s, t});
    path_routes_.push_back(r);
    return path_;
  }
  const std::size_t W = words_;
  const std::span<const std::uint64_t> from_s = ix.succ_row(s);
  const std::span<const std::uint64_t> into_t = ix.pred_row(t);
  for (std::size_t w = 0; w < W; ++w) {
    for (std::uint64_t m = from_s[w] & into_t[w]; m != 0; m &= m - 1) {
      const auto u = static_cast<Node>(w * kLaneBits + std::countr_zero(m));
      if (fault_stamp_[u] == epoch_) continue;
      const std::uint32_t r1 = arc_route(s, u);
      if (r1 == kNoLiveRoute) continue;
      const std::uint32_t r2 = arc_route(u, t);
      if (r2 == kNoLiveRoute) continue;
      path_.assign({s, u, t});
      path_routes_.assign({r1, r2});
      return path_;
    }
  }
  // FIFO BFS. Each dequeued node's live successors are gathered from its
  // out-pairs into a row, then walked in ascending node order.
  std::fill_n(visited_bits_.data(), W, 0);
  visited_bits_[s >> 6] = std::uint64_t{1} << (s & 63);
  queue_.clear();
  queue_.push_back(s);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const Node u = queue_[qi];
    std::fill_n(next_bits_.data(), W, 0);
    for (std::uint32_t k = ix.src_pair_off_[u]; k < ix.src_pair_off_[u + 1];
         ++k) {
      const std::uint32_t pid = ix.src_pair_ids_[k];
      const Node v = ix.pair_dst_[pid];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((visited_bits_[v >> 6] & bit) != 0) continue;
      const std::uint32_t r = live_route(pid);
      if (r == kNoLiveRoute) continue;
      next_bits_[v >> 6] |= bit;
      parent_route_[v] = r;
    }
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t fresh = next_bits_[w];
      visited_bits_[w] |= fresh;
      while (fresh != 0) {
        const auto v =
            static_cast<Node>(w * kLaneBits + std::countr_zero(fresh));
        fresh &= fresh - 1;
        parent_[v] = u;
        if (v == t) {
          for (Node x = t; x != s; x = parent_[x]) {
            path_.push_back(x);
            path_routes_.push_back(parent_route_[x]);
          }
          path_.push_back(s);
          std::reverse(path_.begin(), path_.end());
          std::reverse(path_routes_.begin(), path_routes_.end());
          return path_;
        }
        queue_.push_back(v);
      }
    }
  }
  return {};
}

}  // namespace ftr
