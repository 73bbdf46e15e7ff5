// Width-templated body of the packed SRG block kernel.
//
// Included ONCE by each per-ISA translation unit (srg_packed_portable /
// _avx2 / _avx512.cpp); everything here lives in an anonymous namespace
// so each TU keeps its own copy compiled under its own -m flags — the
// ODR-safety scheme described in srg_packed.hpp. The body is a faithful
// width generalization of the 64-lane kernel that used to live inline
// in SrgScratch::evaluate_gray_block: one uint64_t of lanes per entity
// becomes a LaneBlock<W>, and every phase — route kill masks, pair dead
// masks, the lane-parallel BFS — runs the same statements over W-word
// blocks. Lanes are still consumed in rank order, so results, per-lane
// evaluation counts, and early-stop behavior are bit-identical to the
// scalar oracle at every width.
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
// The caller (SrgScratch) owns phase (a) — walking the revolving-door
// enumerator into lane_node_mask / lane_touched — because that phase
// needs GraySubsetEnumerator, which must not be instantiated inside an
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

template <unsigned W>
void run_block(const PackedCtx& ctx, std::size_t count,
               std::uint32_t survivors) {
  using Block = LaneBlock<W>;
  const std::size_t lanes = std::size_t{64} * W;
  const Block full = Block::first_lanes(count);

  for (std::size_t l = 0; l < lanes; ++l) {
    ctx.dead_pairs[l] = 0;
    ctx.diam[l] = 0;
  }
  for (unsigned i = 0; i < W; ++i) ctx.disconnected[i] = 0;

  // (b) Route kill masks via the inverted index: a route is dead in
  // every lane where some node on it is faulty.
  std::size_t num_dirty_routes = 0;
  for (std::size_t t = 0; t < ctx.lane_touched_count; ++t) {
    const std::uint32_t v = ctx.lane_touched[t];
    const Block m = Block::load(ctx.lane_node_mask + std::size_t{v} * W);
    for (std::uint32_t i = ctx.node_route_off[v];
         i < ctx.node_route_off[v + 1]; ++i) {
      const std::uint32_t r = ctx.node_route_ids[i];
      std::uint64_t* row = ctx.route_kill_mask + std::size_t{r} * W;
      const Block prev = Block::load(row);
      if (prev.none()) ctx.dirty_routes[num_dirty_routes++] = r;
      (prev | m).store(row);
    }
  }

  // (c) Pair dead masks: a pair is dead in the lanes where ALL of its
  // routes are killed — an AND over its contiguous route range.
  // Untouched pairs keep mask 0 (live in every lane).
  std::size_t num_dirty_pairs = 0;
  for (std::size_t i = 0; i < num_dirty_routes; ++i) {
    const std::uint32_t pid = ctx.route_pair[ctx.dirty_routes[i]];
    if (ctx.pair_dirty[pid] != 0) continue;
    ctx.pair_dirty[pid] = 1;
    ctx.dirty_pairs[num_dirty_pairs++] = pid;
    Block dead = Block::ones();
    for (std::uint32_t rr = ctx.pair_route_off[pid];
         rr < ctx.pair_route_off[pid + 1]; ++rr) {
      dead = dead & Block::load(ctx.route_kill_mask + std::size_t{rr} * W);
      if (dead.none()) break;
    }
    dead.store(ctx.pair_dead_mask + std::size_t{pid} * W);
    (dead & full).for_each_lane([&](std::size_t l) { ++ctx.dead_pairs[l]; });
  }

  // (d) Lane-parallel BFS: one LaneBlock of lanes per node. A lane
  // drops out of `active` once some source fails to reach every
  // survivor in it (its diameter is then kUnreachable, matching the
  // scalar early return).
  if (survivors >= 2) {
    Block disconnected = Block::zero();
    std::uint32_t* frontier = ctx.frontier;
    std::uint32_t* next = ctx.next;
    for (std::uint32_t s = 0; s < ctx.n; ++s) {
      const Block active = andnot(
          andnot(full, Block::load(ctx.lane_node_mask + std::size_t{s} * W)),
          disconnected);
      if (active.none()) continue;
      for (std::size_t i = 0; i < ctx.n * W; ++i) ctx.visited[i] = 0;
      for (std::size_t l = 0; l < lanes; ++l) ctx.ecc[l] = 0;
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
              const Block m = andnot(
                  need & Block::load(ctx.new_mask + std::size_t{u} * W),
                  Block::load(ctx.pair_dead_mask + std::size_t{pid} * W));
              if (m.none()) continue;
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
              const Block m = andnot(
                  andnot(fm, Block::load(ctx.pair_dead_mask +
                                         std::size_t{pid} * W)),
                  Block::load(ctx.visited + std::size_t{v} * W));
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
        grew.for_each_lane([&](std::size_t l) { ctx.ecc[l] = level; });
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
      (active & ok).for_each_lane([&](std::size_t l) {
        if (ctx.ecc[l] > ctx.diam[l]) ctx.diam[l] = ctx.ecc[l];
      });
      if (disconnected == full) break;
    }
    disconnected.store(ctx.disconnected);
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
