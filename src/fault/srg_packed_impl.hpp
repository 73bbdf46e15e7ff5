// Width-templated body of the packed SRG block kernel.
//
// Included ONCE by each per-ISA translation unit (srg_packed_portable /
// _avx2 / _avx512.cpp); everything here lives in an anonymous namespace
// so each TU keeps its own copy compiled under its own -m flags — the
// ODR-safety scheme described in srg_packed.hpp. One LaneBlock<W> of
// lanes per entity (route kill masks, pair dead masks, the BFS's
// visited/frontier masks), and every phase runs the same statements over
// W-word blocks held in vector registers (lane_block.hpp). Lanes are
// still consumed in rank order, so results, per-lane evaluation counts,
// and early-stop behavior are bit-identical to per-set evaluation at
// every width and under every ISA.
//
// No phase loops over lanes per pair or per BFS level; the two per-lane
// outputs are accumulated as lane masks and read out once per block:
//  * dead-pair counts — each dirty pair's dead mask is added into a
//    bit-sliced counter (LaneCounter: plane k holds bit k of every lane's
//    count), transposed into dead_pairs[l] at the end of phase (c);
//  * diameters — each BFS level's newly reached lanes are kept as
//    level_grew[k]; once a source's fully-reaching lanes (`ok`) are known,
//    level_grew[k] & ok is ORed into diam_ge[k], and diam[l] is the
//    deepest k whose mask holds lane l.
//
// The BFS picks a direction per level, like the bitset kernel's
// bfs_from_bits: bottom-up (each unreached node walks its in-pairs until
// every lane it still misses is found) once the frontier holds at least a
// quarter as many nodes as are left to reach, else top-down (each frontier
// node walks its out-pairs). On the near-complete surviving route graphs
// the second level has the whole neighbourhood as its frontier, and
// bottom-up answers it in a few probes per node instead of a scan of every
// ordered pair. Both directions reach the same (node, lane) set per level.
//
// Where a probed pair's dead lanes come from is the one policy parameter
// (kAnySets, picked at runtime from PackedCtx::any_sets):
//  * Gray blocks store them: phase (b) ORs each touched node's lanes into
//    the kill masks of the routes through it, phase (c) ANDs each dirty
//    pair's route masks into its dead mask, and the BFS loads that mask.
//    Adjacent revolving-door sets share most faults, so few pairs go dirty.
//  * Any-set blocks compute them on the fly: a probed pair is dead in the
//    lanes where every route has a faulty interior node (the OR of
//    lane_node_mask over the route's interior). The BFS masks already
//    exclude the lanes where the pair's source or target is faulty. The
//    dead-pair counts come from one pass over every pair's full routes.
//    Phases (b)-(c), their arrays and their sparse cleanup are skipped.
//
// The caller (SrgScratch) owns phase (a) — filling lane_node_mask /
// lane_touched from the block's sets — because the Gray form needs
// GraySubsetEnumerator, which must not be instantiated inside an
// AVX-flagged TU. Everything after the ctx handoff touches only raw
// arrays. No std:: calls in here either (see lane_block.hpp).
#include <cstddef>
#include <cstdint>

#include "fault/srg_packed.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace ftr::packed {
namespace {

#define FTR_LANE_BLOCK_FRAGMENT 1
#include "fault/lane_block.hpp"
#undef FTR_LANE_BLOCK_FRAGMENT

// Bit-sliced per-lane counter: plane k holds bit k of every lane's count.
// add() ripples a one-bit-per-lane mask up the planes with half adders
// until no lane carries, so a count costs block ops, never a lane loop.
template <unsigned W>
struct LaneCounter {
  using Block = LaneBlock<W>;

  Block planes[32];   // counts fit in uint32_t
  unsigned used = 0;  // planes written so far

  inline void add(Block m) {
    for (unsigned k = 0; m.any(); ++k) {
      if (k == used) planes[used++] = Block::zero();
      const Block carry = planes[k] & m;
      planes[k] = planes[k] ^ m;
      m = carry;
    }
  }

  // Transposes the planes into out[0, count), once per block.
  void read(std::uint32_t* out, std::size_t count) const {
    for (std::size_t l = 0; l < count; ++l) out[l] = 0;
    for (unsigned k = 0; k < used; ++k) {
      planes[k].for_each_lane([&](std::size_t l) { out[l] |= 1u << k; });
    }
  }
};

// Lanes of `dead` in which every route of pair `pid` has a faulty node —
// among its interior nodes only when `interior`, else among all of them.
template <unsigned W>
inline LaneBlock<W> routes_dead(const PackedCtx& ctx, std::uint32_t pid,
                                LaneBlock<W> dead, bool interior) {
  using Block = LaneBlock<W>;
  const std::uint32_t skip = interior ? 1 : 0;
  for (std::uint32_t r = ctx.pair_route_off[pid];
       r < ctx.pair_route_off[pid + 1]; ++r) {
    Block kill = Block::zero();
    const std::uint32_t end = ctx.route_off[r + 1] - skip;
    for (std::uint32_t i = ctx.route_off[r] + skip; i < end; ++i) {
      kill = kill | Block::load(ctx.lane_node_mask +
                                std::size_t{ctx.route_nodes[i]} * W);
    }
    dead = dead & kill;
    if (dead.none()) break;
  }
  return dead;
}

// Gray blocks, phases (b)-(c): stores the kill masks of the routes
// through the touched nodes and the dead masks of their pairs, adds each
// dirty pair's dead lanes into `dead_count`, and counts the dirty lists
// for the sparse cleanup.
template <unsigned W>
void store_dead_masks(const PackedCtx& ctx, LaneBlock<W> full,
                      LaneCounter<W>& dead_count, std::size_t& dirty_routes,
                      std::size_t& dirty_pairs) {
  using Block = LaneBlock<W>;
  // (b) Route kill masks via the inverted index: a route is dead in
  // every lane where some node on it is faulty.
  for (std::size_t t = 0; t < ctx.lane_touched_count; ++t) {
    const std::uint32_t v = ctx.lane_touched[t];
    const Block m = Block::load(ctx.lane_node_mask + std::size_t{v} * W);
    for (std::uint32_t i = ctx.node_route_off[v];
         i < ctx.node_route_off[v + 1]; ++i) {
      const std::uint32_t r = ctx.node_route_ids[i];
      std::uint64_t* row = ctx.route_kill_mask + std::size_t{r} * W;
      const Block prev = Block::load(row);
      if (prev.none()) ctx.dirty_routes[dirty_routes++] = r;
      (prev | m).store(row);
    }
  }

  // (c) Pair dead masks: a pair is dead in the lanes where ALL of its
  // routes are killed — an AND over its contiguous route range.
  // Untouched pairs keep mask 0 (live in every lane). Each dirty pair's
  // dead lanes go into the bit-sliced counter, read out once below.
  for (std::size_t i = 0; i < dirty_routes; ++i) {
    const std::uint32_t pid = ctx.route_pair[ctx.dirty_routes[i]];
    if (ctx.pair_dirty[pid] != 0) continue;
    ctx.pair_dirty[pid] = 1;
    ctx.dirty_pairs[dirty_pairs++] = pid;
    Block dead = Block::ones();
    for (std::uint32_t rr = ctx.pair_route_off[pid];
         rr < ctx.pair_route_off[pid + 1]; ++rr) {
      dead = dead & Block::load(ctx.route_kill_mask + std::size_t{rr} * W);
      if (dead.none()) break;
    }
    dead.store(ctx.pair_dead_mask + std::size_t{pid} * W);
    dead_count.add(dead & full);
  }
}

template <unsigned W, bool kAnySets>
void run_block_impl(const PackedCtx& ctx, std::size_t count,
                    std::uint32_t survivors) {
  using Block = LaneBlock<W>;
  const Block full = Block::first_lanes(count);
  LaneCounter<W> dead_count;
  std::size_t num_dirty_routes = 0;
  std::size_t num_dirty_pairs = 0;

  if constexpr (kAnySets) {
    // Dead-pair counts: a pair is dead in the lanes where each of its
    // routes has a faulty node, endpoints included.
    for (std::uint32_t pid = 0; pid < ctx.num_pairs; ++pid) {
      dead_count.add(routes_dead<W>(ctx, pid, full, /*interior=*/false));
    }
  } else {
    store_dead_masks<W>(ctx, full, dead_count, num_dirty_routes,
                        num_dirty_pairs);
  }
  dead_count.read(ctx.dead_pairs, count);
  for (std::size_t l = 0; l < count; ++l) ctx.diam[l] = 0;
  for (unsigned i = 0; i < W; ++i) ctx.disconnected[i] = 0;

  // (d) Lane-parallel BFS: one LaneBlock of lanes per node. A lane
  // drops out of `active` once some source fails to reach every
  // survivor in it (its diameter is then kUnreachable, matching
  // evaluate()'s early return). Level k's newly reached lanes are kept in
  // level_grew[k]; once a source's `ok` lanes are known they are ORed
  // into diam_ge[k], the lanes whose diameter is at least k.
  if (survivors >= 2) {
    Block disconnected = Block::zero();
    std::uint32_t* frontier = ctx.frontier;
    std::uint32_t* next = ctx.next;
    std::uint32_t max_level = 0;  // deepest level with a diam_ge bit
    for (std::uint32_t s = 0; s < ctx.n; ++s) {
      const Block active = andnot(
          andnot(full, Block::load(ctx.lane_node_mask + std::size_t{s} * W)),
          disconnected);
      if (active.none()) continue;
      for (std::size_t i = 0; i < ctx.n * W; i += W) {
        Block::zero().store(ctx.visited + i);
      }
      active.store(ctx.visited + std::size_t{s} * W);
      active.store(ctx.new_mask + std::size_t{s} * W);
      frontier[0] = s;
      std::size_t frontier_count = 1;
      std::uint32_t level = 0;
      while (frontier_count != 0) {
        ++level;
        // Candidates: nodes still unreached in some active lane where they
        // survive. They are listed in `next`, which the bottom-up step
        // compacts in place (its write index never passes its read index)
        // and the top-down step simply overwrites.
        std::size_t candidates = 0;
        for (std::uint32_t v = 0; v < ctx.n; ++v) {
          const Block need = andnot(
              andnot(active, Block::load(ctx.visited + std::size_t{v} * W)),
              Block::load(ctx.lane_node_mask + std::size_t{v} * W));
          if (need.any()) next[candidates++] = v;
        }
        // Direction switch on frontier density, as in the bitset kernel:
        // top-down walks every out-pair of every frontier node; bottom-up
        // walks each candidate's in-pairs and stops once all of its
        // missing lanes are found. The (node, lane) set reached at a level
        // is the same either way, so the choice never changes a result.
        std::size_t next_count = 0;
        if (candidates == 0) {
          // Nothing left to reach: the BFS ends at this level.
        } else if (frontier_count * 4 >= candidates) {
          for (std::size_t i = 0; i < candidates; ++i) {
            const std::uint32_t v = next[i];
            Block need = andnot(
                andnot(active, Block::load(ctx.visited + std::size_t{v} * W)),
                Block::load(ctx.lane_node_mask + std::size_t{v} * W));
            Block got = Block::zero();
            for (std::uint32_t k = ctx.dst_pair_off[v];
                 k < ctx.dst_pair_off[v + 1]; ++k) {
              const std::uint32_t pid = ctx.dst_pair_ids[k];
              const std::uint32_t u = ctx.pair_src[pid];
              Block m;
              if constexpr (kAnySets) {
                // No skip when the probe finds nothing: whether it does
                // hangs on every earlier probe's lanes, so that branch
                // mispredicts often enough to cost more than the route ORs
                // it would save (about a quarter of the block's time).
                const Block cand =
                    need & Block::load(ctx.new_mask + std::size_t{u} * W);
                m = andnot(cand,
                           routes_dead<W>(ctx, pid, cand, /*interior=*/true));
              } else {
                m = andnot(
                    need & Block::load(ctx.new_mask + std::size_t{u} * W),
                    Block::load(ctx.pair_dead_mask + std::size_t{pid} * W));
                if (m.none()) continue;
              }
              got = got | m;
              need = andnot(need, m);
              if (need.none()) break;
            }
            if (got.none()) continue;
            got.store(ctx.next_mask + std::size_t{v} * W);
            next[next_count++] = v;
          }
        } else {
          for (std::size_t i = 0; i < frontier_count; ++i) {
            const std::uint32_t u = frontier[i];
            const Block fm = Block::load(ctx.new_mask + std::size_t{u} * W);
            for (std::uint32_t k = ctx.src_pair_off[u];
                 k < ctx.src_pair_off[u + 1]; ++k) {
              const std::uint32_t pid = ctx.src_pair_ids[k];
              const std::uint32_t v = ctx.pair_dst[pid];
              Block m;
              if constexpr (kAnySets) {
                const Block cand = andnot(
                    andnot(fm, Block::load(ctx.visited + std::size_t{v} * W)),
                    Block::load(ctx.lane_node_mask + std::size_t{v} * W));
                if (cand.none()) continue;
                m = andnot(cand,
                           routes_dead<W>(ctx, pid, cand, /*interior=*/true));
              } else {
                m = andnot(
                    andnot(fm, Block::load(ctx.pair_dead_mask +
                                           std::size_t{pid} * W)),
                    Block::load(ctx.visited + std::size_t{v} * W));
              }
              if (m.none()) continue;
              std::uint64_t* nm = ctx.next_mask + std::size_t{v} * W;
              const Block prev = Block::load(nm);
              if (prev.none()) next[next_count++] = v;
              (prev | m).store(nm);
            }
          }
        }
        for (std::size_t i = 0; i < frontier_count; ++i) {
          Block::zero().store(ctx.new_mask + std::size_t{frontier[i]} * W);
        }
        Block grew = Block::zero();
        for (std::size_t i = 0; i < next_count; ++i) {
          const std::uint32_t v = next[i];
          std::uint64_t* nm = ctx.next_mask + std::size_t{v} * W;
          const Block m = Block::load(nm);
          Block::zero().store(nm);
          m.store(ctx.new_mask + std::size_t{v} * W);
          std::uint64_t* vis = ctx.visited + std::size_t{v} * W;
          (Block::load(vis) | m).store(vis);
          grew = grew | m;
        }
        grew.store(ctx.level_grew + std::size_t{level} * W);
        std::uint32_t* tmp = frontier;
        frontier = next;
        next = tmp;
        frontier_count = next_count;
      }
      // A lane reached every survivor iff every node is
      // visited-or-faulty.
      Block ok = active;
      for (std::uint32_t v = 0; v < ctx.n && ok.any(); ++v) {
        ok = ok & (Block::load(ctx.visited + std::size_t{v} * W) |
                   Block::load(ctx.lane_node_mask + std::size_t{v} * W));
      }
      disconnected = disconnected | andnot(active, ok);
      // The last level reached nothing. Every level up to a lane's
      // eccentricity grew in that lane, so diam_ge[k] collects exactly the
      // lanes with some eccentricity >= k.
      const std::uint32_t last_level = level - 1;
      if (ok.any()) {
        for (std::uint32_t k = 1; k <= last_level; ++k) {
          std::uint64_t* ge = ctx.diam_ge + std::size_t{k} * W;
          (Block::load(ge) |
           (Block::load(ctx.level_grew + std::size_t{k} * W) & ok))
              .store(ge);
        }
        if (last_level > max_level) max_level = last_level;
      }
      if (disconnected == full) break;
    }
    disconnected.store(ctx.disconnected);
    // diam[l] is the deepest level whose mask holds lane l; walking down
    // from the deepest level, each lane is stamped once.
    Block found = Block::zero();
    for (std::uint32_t k = max_level; k >= 1; --k) {
      std::uint64_t* ge = ctx.diam_ge + std::size_t{k} * W;
      const Block fresh = andnot(Block::load(ge), found);
      fresh.for_each_lane([&](std::size_t l) { ctx.diam[l] = k; });
      found = found | fresh;
      Block::zero().store(ge);
    }
  }

  // Sparse cleanup: only the block's footprint was written, so only it
  // is re-zeroed — preserving the all-zero-between-blocks invariant.
  for (std::size_t t = 0; t < ctx.lane_touched_count; ++t) {
    Block::zero().store(ctx.lane_node_mask +
                        std::size_t{ctx.lane_touched[t]} * W);
  }
  for (std::size_t i = 0; i < num_dirty_routes; ++i) {
    Block::zero().store(ctx.route_kill_mask +
                        std::size_t{ctx.dirty_routes[i]} * W);
  }
  for (std::size_t i = 0; i < num_dirty_pairs; ++i) {
    const std::uint32_t pid = ctx.dirty_pairs[i];
    Block::zero().store(ctx.pair_dead_mask + std::size_t{pid} * W);
    ctx.pair_dirty[pid] = 0;
  }
}

template <unsigned W>
void run_block(const PackedCtx& ctx, std::size_t count,
               std::uint32_t survivors) {
  if (ctx.any_sets) {
    run_block_impl<W, true>(ctx, count, survivors);
  } else {
    run_block_impl<W, false>(ctx, count, survivors);
  }
}

inline PackedBlockFn block_fn_for(unsigned words) {
  switch (words) {
    case 1:
      return &run_block<1>;
    case 2:
      return &run_block<2>;
    case 4:
      return &run_block<4>;
    case 8:
      return &run_block<8>;
    default:
      return nullptr;
  }
}

}  // namespace
}  // namespace ftr::packed
