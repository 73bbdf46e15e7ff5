#include "fault/srg_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "graph/bfs.hpp"

namespace ftr {

namespace {
constexpr std::size_t kLaneBits = 64;

std::size_t bit_words(std::size_t n) { return (n + kLaneBits - 1) / kLaneBits; }
}  // namespace

SrgIndex::SrgIndex(const RoutingTable& table) : n_(table.num_nodes()) {
  route_nodes_.reserve(table.arena_size());
  route_off_.reserve(table.num_routes() + 1);
  route_off_.push_back(0);
  // Every entry of a single-route table is its own ordered pair.
  table.for_each_view([this](Node x, Node y, PathView path) {
    route_src_.push_back(x);
    route_dst_.push_back(y);
    route_pair_.push_back(static_cast<std::uint32_t>(num_pairs_++));
    pair_src_.push_back(x);
    pair_dst_.push_back(y);
    route_nodes_.append(path.begin(), path.end());
    route_off_.push_back(static_cast<std::uint32_t>(route_nodes_.size()));
  });
  finalize_routes();
}

SrgIndex::SrgIndex(const MultiRouteTable& table) : n_(table.num_nodes()) {
  route_nodes_.reserve(table.arena_size());
  route_off_.reserve(table.total_routes() + 1);
  route_off_.push_back(0);
  table.for_each_pair_view([this](Node x, Node y,
                                  const MultiRouteTable::RouteRange& routes) {
    const auto pair_id = static_cast<std::uint32_t>(num_pairs_++);
    pair_src_.push_back(x);
    pair_dst_.push_back(y);
    for (PathView path : routes) {
      route_src_.push_back(x);
      route_dst_.push_back(y);
      route_pair_.push_back(pair_id);
      route_nodes_.append(path.begin(), path.end());
      route_off_.push_back(static_cast<std::uint32_t>(route_nodes_.size()));
    }
  });
  finalize_routes();
}

void SrgIndex::finalize_routes() {
  const std::size_t num_routes = route_src_.size();
  pair_route_count_.assign(num_pairs_, 0);
  for (std::uint32_t pid : route_pair_) ++pair_route_count_[pid];
  // Inverted index: node -> ids of routes whose path contains it (endpoints
  // included, so an endpoint fault kills the route like any interior fault).
  node_route_off_.assign(n_ + 1, 0);
  for (Node v : route_nodes_) ++node_route_off_[v + 1];
  for (std::size_t i = 1; i <= n_; ++i) {
    node_route_off_[i] += node_route_off_[i - 1];
  }
  node_route_ids_.resize(route_nodes_.size());
  std::vector<std::uint32_t> cursor(node_route_off_.begin(),
                                    node_route_off_.end() - 1);
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    for (std::uint32_t i = route_off_[r]; i < route_off_[r + 1]; ++i) {
      node_route_ids_[cursor[route_nodes_[i]]++] = r;
    }
  }

  // Packed-kernel support: pair -> contiguous route-id range. Both table
  // constructors emit a pair's routes back to back, which the kill-mask AND
  // in evaluate_gray_block() relies on — assert rather than assume.
  pair_route_off_.assign(num_pairs_ + 1, 0);
  for (std::size_t p = 0; p < num_pairs_; ++p) {
    pair_route_off_[p + 1] = pair_route_off_[p] + pair_route_count_[p];
  }
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    const std::uint32_t pid = route_pair_[r];
    FTR_ASSERT(r >= pair_route_off_[pid] && r < pair_route_off_[pid + 1]);
  }
  // Ordered pairs grouped by source node (counting sort): the adjacency the
  // lane-parallel BFS walks.
  src_pair_off_.assign(n_ + 1, 0);
  for (Node s : pair_src_) ++src_pair_off_[s + 1];
  for (std::size_t i = 1; i <= n_; ++i) src_pair_off_[i] += src_pair_off_[i - 1];
  src_pair_ids_.resize(num_pairs_);
  cursor.assign(src_pair_off_.begin(), src_pair_off_.end() - 1);
  for (std::uint32_t pid = 0; pid < num_pairs_; ++pid) {
    src_pair_ids_[cursor[pair_src_[pid]]++] = pid;
  }
}

std::size_t SrgIndex::memory_bytes() const {
  // Allocator capacity when owned, mapped extent when snapshot-backed.
  return route_nodes_.memory_bytes() + route_off_.memory_bytes() +
         route_src_.memory_bytes() + route_dst_.memory_bytes() +
         route_pair_.memory_bytes() + pair_src_.memory_bytes() +
         pair_dst_.memory_bytes() + pair_route_count_.memory_bytes() +
         node_route_off_.memory_bytes() + node_route_ids_.memory_bytes() +
         pair_route_off_.memory_bytes() + src_pair_off_.memory_bytes() +
         src_pair_ids_.memory_bytes();
}

SrgScratch::SrgScratch(const SrgIndex& index) : index_(&index) {
  const std::size_t n = index.n_;
  fault_stamp_.assign(n, 0);
  route_stamp_.assign(index.route_src_.size(), 0);
  pair_stamp_.assign(index.num_pairs_, 0);
  arc_off_.assign(n + 1, 0);
  arc_cursor_.assign(n, 0);
  seen_stamp_.assign(n, 0);
  dist_.assign(n, 0);
  queue_.reserve(n);
  arcs_.reserve(index.num_pairs_);
  words_ = bit_words(n);
  visited_bits_.assign(words_, 0);
  frontier_bits_.assign(words_, 0);
  next_bits_.assign(words_, 0);
}

void SrgScratch::reset() {
  std::fill(fault_stamp_.begin(), fault_stamp_.end(), 0);
  std::fill(route_stamp_.begin(), route_stamp_.end(), 0);
  std::fill(pair_stamp_.begin(), pair_stamp_.end(), 0);
  std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
  epoch_ = 0;
  bfs_epoch_ = 0;
  bits_valid_ = false;
}

void SrgScratch::set_epochs_for_testing(std::uint32_t epoch) {
  reset();
  epoch_ = epoch;
  bfs_epoch_ = epoch;
}

std::uint32_t SrgScratch::strike(std::span<const Node> faults) {
  const SrgIndex& ix = *index_;
  ++epoch_;
  if (epoch_ == 0) {
    // Stamp wrap, once per 2^32 strikes: a stale stamp from the previous
    // counter era could otherwise collide with a fresh epoch value. Re-zero
    // every strike-side stamp and restart the counter above the zeroes.
    std::fill(fault_stamp_.begin(), fault_stamp_.end(), 0);
    std::fill(route_stamp_.begin(), route_stamp_.end(), 0);
    std::fill(pair_stamp_.begin(), pair_stamp_.end(), 0);
    epoch_ = 1;
  }
  auto survivors = static_cast<std::uint32_t>(ix.n_);
  for (Node f : faults) {
    FTR_EXPECTS_MSG(f < ix.n_, "fault " << f << " out of range");
    if (fault_stamp_[f] == epoch_) continue;  // duplicate fault id
    fault_stamp_[f] = epoch_;
    --survivors;
    for (std::uint32_t i = ix.node_route_off_[f]; i < ix.node_route_off_[f + 1];
         ++i) {
      route_stamp_[ix.node_route_ids_[i]] = epoch_;
    }
  }

  // Collect surviving arcs, one per ordered pair with a live route.
  arcs_.clear();
  const std::size_t num_routes = ix.route_src_.size();
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    if (route_stamp_[r] == epoch_) continue;
    const std::uint32_t pid = ix.route_pair_[r];
    if (pair_stamp_[pid] == epoch_) continue;
    pair_stamp_[pid] = epoch_;
    arcs_.emplace_back(ix.route_src_[r], ix.route_dst_[r]);
  }

  // Counting sort by source into the scratch CSR.
  std::fill(arc_off_.begin(), arc_off_.end(), 0);
  for (const auto& [src, dst] : arcs_) ++arc_off_[src + 1];
  for (std::size_t i = 1; i <= ix.n_; ++i) arc_off_[i] += arc_off_[i - 1];
  arc_tgt_.resize(arcs_.size());
  std::copy(arc_off_.begin(), arc_off_.end() - 1, arc_cursor_.begin());
  for (const auto& [src, dst] : arcs_) arc_tgt_[arc_cursor_[src]++] = dst;
  bits_valid_ = false;  // bitset view of this set is rebuilt on demand
  return survivors;
}

std::uint32_t SrgScratch::bfs_from(Node s, std::uint32_t* reached_out) {
  ++bfs_epoch_;
  if (bfs_epoch_ == 0) {  // same wraparound discipline as strike()
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
    bfs_epoch_ = 1;
  }
  queue_.clear();
  queue_.push_back(s);
  seen_stamp_[s] = bfs_epoch_;
  dist_[s] = 0;
  std::uint32_t reached = 1;
  std::uint32_t ecc = 0;
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const Node u = queue_[qi];
    const std::uint32_t du = dist_[u];
    for (std::uint32_t i = arc_off_[u]; i < arc_off_[u + 1]; ++i) {
      const Node v = arc_tgt_[i];
      if (seen_stamp_[v] == bfs_epoch_) continue;
      seen_stamp_[v] = bfs_epoch_;
      dist_[v] = du + 1;
      ecc = du + 1;
      ++reached;
      queue_.push_back(v);
    }
  }
  if (reached_out != nullptr) *reached_out = reached;
  return ecc;
}

void SrgScratch::ensure_bits() {
  if (bits_valid_) return;
  const SrgIndex& ix = *index_;
  const std::size_t n = ix.n_;
  if (succ_bits_.empty()) {
    succ_bits_.resize(n * words_);
    pred_bits_.resize(n * words_);
    alive_bits_.resize(words_);
  }
  std::fill(succ_bits_.begin(), succ_bits_.end(), 0);
  std::fill(pred_bits_.begin(), pred_bits_.end(), 0);
  std::fill(alive_bits_.begin(), alive_bits_.end(), 0);
  for (Node v = 0; v < n; ++v) {
    if (fault_stamp_[v] != epoch_) {
      alive_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
  for (const auto& [src, dst] : arcs_) {
    succ_bits_[src * words_ + (dst >> 6)] |= std::uint64_t{1} << (dst & 63);
    pred_bits_[dst * words_ + (src >> 6)] |= std::uint64_t{1} << (src & 63);
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
  res.arcs = static_cast<std::uint32_t>(arcs_.size());
  if (survivors <= 1) return res;  // diameter 0 by convention
  const bool bitset = single_set_kernel() == SrgKernel::kBitset;
  if (bitset) ensure_bits();
  std::uint32_t diam = 0;
  for (Node s = 0; s < index_->n_; ++s) {
    if (fault_stamp_[s] == epoch_) continue;
    std::uint32_t reached = 0;
    const std::uint32_t ecc = bitset
                                  ? bfs_from_bits(survivors, s, &reached, false)
                                  : bfs_from(s, &reached);
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

unsigned SrgScratch::lane_width() {
  if (pk_lanes_ == 0) {
    pk_lanes_ = resolve_lane_width(pk_requested_lanes_);
    pk_fn_ = packed::select_block_fn(pk_lanes_ / kLaneBits);
    FTR_ASSERT(pk_fn_ != nullptr);
  }
  return pk_lanes_;
}

void SrgScratch::ensure_packed_state() {
  const unsigned words = lane_width() / kLaneBits;
  if (pk_words_ == words && !lane_node_mask_.empty()) return;
  const SrgIndex& ix = *index_;
  const std::size_t w = words;
  lane_node_mask_.assign(ix.n_ * w, 0);
  route_kill_mask_.assign(ix.route_src_.size() * w, 0);
  pair_dead_mask_.assign(ix.num_pairs_ * w, 0);
  pair_dirty_.assign(ix.num_pairs_, 0);
  pk_visited_.assign(ix.n_ * w, 0);
  pk_new_.assign(ix.n_ * w, 0);
  pk_next_mask_.assign(ix.n_ * w, 0);
  // The dispatched kernel fills these through raw pointers, so they are
  // sized (not just reserved) to their capacity contracts.
  pk_dirty_routes_.assign(ix.route_src_.size(), 0);
  pk_dirty_pairs_.assign(ix.num_pairs_, 0);
  pk_frontier_.assign(ix.n_, 0);
  pk_next_.assign(ix.n_, 0);
  pk_dead_pairs_.assign(kLaneBits * w, 0);
  pk_diam_.assign(kLaneBits * w, 0);
  pk_ecc_.assign(kLaneBits * w, 0);
  pk_disconnected_.assign(w, 0);
  pk_words_ = words;
}

void SrgScratch::evaluate_gray_block(GraySubsetEnumerator& e,
                                     std::size_t count, Result* out) {
  ensure_packed_state();
  const unsigned W = pk_words_;
  FTR_EXPECTS(count >= 1 && count <= std::size_t{kLaneBits} * W);
  FTR_EXPECTS_MSG(e.valid(), "enumerator exhausted before the block");
  const SrgIndex& ix = *index_;
  const std::size_t n = ix.n_;

  // (a) Lane membership: walk the count-1 revolving-door transitions once,
  // accumulating per-node masks of the lanes in which the node is faulty.
  const auto& first = e.current();
  const std::size_t f = first.size();
  pk_members_.assign(first.begin(), first.end());
  lane_touched_.clear();
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (lane > 0) {
      const bool ok = e.advance();
      FTR_EXPECTS_MSG(ok, "enumeration ended inside a packed block");
      const GrayTransition& t = e.last_transition();
      for (Node& m : pk_members_) {
        if (m == static_cast<Node>(t.out)) {
          m = static_cast<Node>(t.in);
          break;
        }
      }
    }
    const std::size_t word = lane / kLaneBits;
    const std::uint64_t bit = std::uint64_t{1} << (lane % kLaneBits);
    for (Node v : pk_members_) {
      FTR_EXPECTS_MSG(v < n, "fault " << v << " out of range");
      std::uint64_t* block = lane_node_mask_.data() + std::size_t{v} * W;
      std::uint64_t seen = 0;
      for (unsigned i = 0; i < W; ++i) seen |= block[i];
      if (seen == 0) lane_touched_.push_back(v);
      block[word] |= bit;
    }
  }

  // (b)-(d) + sparse cleanup: the runtime-dispatched W-word block body.
  packed::PackedCtx ctx;
  ctx.n = n;
  ctx.num_pairs = ix.num_pairs_;
  ctx.node_route_off = ix.node_route_off_.data();
  ctx.node_route_ids = ix.node_route_ids_.data();
  ctx.route_pair = ix.route_pair_.data();
  ctx.pair_route_off = ix.pair_route_off_.data();
  ctx.pair_dst = ix.pair_dst_.data();
  ctx.src_pair_off = ix.src_pair_off_.data();
  ctx.src_pair_ids = ix.src_pair_ids_.data();
  ctx.lane_node_mask = lane_node_mask_.data();
  ctx.route_kill_mask = route_kill_mask_.data();
  ctx.pair_dead_mask = pair_dead_mask_.data();
  ctx.pair_dirty = pair_dirty_.data();
  ctx.visited = pk_visited_.data();
  ctx.new_mask = pk_new_.data();
  ctx.next_mask = pk_next_mask_.data();
  ctx.lane_touched = lane_touched_.data();
  ctx.lane_touched_count = lane_touched_.size();
  ctx.dirty_routes = pk_dirty_routes_.data();
  ctx.dirty_pairs = pk_dirty_pairs_.data();
  ctx.frontier = pk_frontier_.data();
  ctx.next = pk_next_.data();
  ctx.dead_pairs = pk_dead_pairs_.data();
  ctx.diam = pk_diam_.data();
  ctx.ecc = pk_ecc_.data();
  ctx.disconnected = pk_disconnected_.data();
  const auto survivors = static_cast<std::uint32_t>(n - f);
  pk_fn_(ctx, count, survivors);
  lane_touched_.clear();

  for (std::size_t lane = 0; lane < count; ++lane) {
    out[lane].survivors = survivors;
    out[lane].arcs =
        static_cast<std::uint32_t>(ix.num_pairs_) - pk_dead_pairs_[lane];
    const bool disconnected =
        ((pk_disconnected_[lane / kLaneBits] >> (lane % kLaneBits)) & 1) != 0;
    out[lane].diameter = survivors <= 1 ? 0
                         : disconnected ? kUnreachable
                                        : pk_diam_[lane];
  }
}

std::uint32_t SrgScratch::componentwise_diameter(
    std::span<const Node> faults, std::span<const std::uint32_t> comp) {
  FTR_EXPECTS(comp.size() == index_->n_);
  const std::uint32_t survivors = strike(faults);
  if (survivors <= 1) return 0;
  std::uint32_t worst = 0;
  if (single_set_kernel() == SrgKernel::kBitset) {
    // Same per-source scan, reachability answered from the visited bitmap
    // and distances from the per-level dist_ fill (BFS levels are unique,
    // so dist_ is kernel-invariant).
    ensure_bits();
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
  for (Node s = 0; s < index_->n_; ++s) {
    if (fault_stamp_[s] == epoch_) continue;
    bfs_from(s, nullptr);
    for (Node t = 0; t < index_->n_; ++t) {
      if (t == s || fault_stamp_[t] == epoch_ || comp[t] != comp[s]) continue;
      if (seen_stamp_[t] != bfs_epoch_) return kUnreachable;
      worst = std::max(worst, dist_[t]);
    }
  }
  return worst;
}

Digraph SrgScratch::surviving_graph(std::span<const Node> faults) {
  strike(faults);
  return last_surviving_graph();
}

Digraph SrgScratch::last_surviving_graph() const {
  FTR_EXPECTS_MSG(epoch_ != 0, "no fault set has been struck yet");
  Digraph r(index_->n_);
  for (Node v = 0; v < index_->n_; ++v) {
    if (fault_stamp_[v] == epoch_) r.remove_node(v);
  }
  for (const auto& [src, dst] : arcs_) r.add_arc(src, dst);
  return r;
}

}  // namespace ftr
