// Width-parameterized packed SRG block kernel: dispatch surface.
//
// The packed kernel evaluates up to 64*W fault sets per call, W words
// (LaneBlock<W>) per node/route/pair. Where a pair's dead lanes come from
// depends on the block's shape (PackedCtx::any_sets):
//
//   Gray blocks  — adjacent revolving-door sets share most faults, so the
//                  kernel stores per-route kill masks and per-pair dead
//                  masks for the pairs the block's faults touch, and the
//                  BFS loads them (a table with one route per pair reads
//                  the route masks as the pair masks). Bottom-up levels
//                  probe in-pairs in groups of four.
//   any-set      — arbitrary sets spread the block's faults over most
//                  nodes, so the kernel stores nothing per route or pair:
//                  each probed pair ORs the lane masks of its routes'
//                  nodes on the fly.
//
// Its lane-parallel BFS
// is direction-optimizing: each level runs top-down over the frontier's
// out-pairs (src_pair_*) or bottom-up over the unreached nodes' in-pairs
// (dst_pair_*), whichever the frontier's density favors. Its body is a
// single width template (srg_packed_impl.hpp) compiled THREE times into
// separate translation units with different ISA flags:
//
//   srg_packed_portable.cpp  — baseline flags; blocks are plain 64-bit
//                              words (or whatever registers the build's
//                              global -m flags give the fragment).
//   srg_packed_avx2.cpp      — compiled with -mavx2 when the toolchain
//                              has it; W = 4 and 8 blocks live in ymm
//                              registers.
//   srg_packed_avx512.cpp    — likewise with -mavx512f; W = 8 blocks live
//                              in one zmm register.
//
// Each TU keeps its instantiations in an anonymous namespace (so the
// linker can never ODR-merge portable and AVX codegen) and exports only
// the three lookup functions below, which return a plain function
// pointer — or nullptr when the TU was compiled without its ISA.
// select_block_fn() is the runtime chooser: strongest ISA the cpuid
// probe reports, falling back to portable. Callers (SrgScratch) hold
// the chosen pointer; every implementation is bit-identical, so the
// choice never affects results. The differential tests pin each lookup
// the CPU supports in turn (SrgScratch::set_block_lookup_for_testing).
//
// PackedCtx is deliberately a POD of raw pointers/sizes: it is the only
// type that crosses the ISA TU boundary, so it must not drag any
// inline-code dependencies (vectors, FlatArray, contracts) into the
// AVX-compiled units.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ftr::packed {

/// Everything one block evaluation reads and writes. Index arrays are
/// the immutable SrgIndex views; scratch arrays are W-strided (entity i
/// occupies words [i*W, (i+1)*W)) and must arrive zero outside the
/// footprint the kernel is about to write — the kernel sparsely re-zeros
/// everything it touched before returning, preserving that invariant.
struct PackedCtx {
  // Immutable index views.
  std::size_t n = 0;          // nodes
  std::size_t num_pairs = 0;  // ordered pairs with >= 1 route
  const std::uint32_t* node_route_off = nullptr;  // n + 1
  const std::uint32_t* node_route_ids = nullptr;
  const std::uint32_t* route_pair = nullptr;      // route -> pair id
  const std::uint32_t* pair_route_off = nullptr;  // pair -> route range
  const std::uint32_t* pair_src = nullptr;        // pair -> source node
  const std::uint32_t* pair_dst = nullptr;        // pair -> target node
  const std::uint32_t* src_pair_off = nullptr;    // node -> out-pair range
  const std::uint32_t* src_pair_ids = nullptr;
  const std::uint32_t* dst_pair_off = nullptr;    // node -> in-pair range
  const std::uint32_t* dst_pair_ids = nullptr;
  const std::uint32_t* route_off = nullptr;    // route -> node range
  const std::uint32_t* route_nodes = nullptr;  // source first, target last

  // Any-set block: pair dead lanes are computed on the fly from
  // lane_node_mask, and the Gray-only arrays below (route_kill_mask,
  // pair_dead_mask, pair_dirty, dirty_routes, dirty_pairs) are unused and
  // may be null.
  bool any_sets = false;

  // W-strided lane masks (scratch). A Gray block over a table with one
  // route per pair (route r is pair r) passes pair_dead_mask ==
  // route_kill_mask: the kernel then reads each route's kill mask as its
  // pair's dead mask, and pair_dirty and dirty_pairs are unused and may be
  // null.
  std::uint64_t* lane_node_mask = nullptr;   // n*W; prefilled by caller
  std::uint64_t* route_kill_mask = nullptr;  // routes*W (Gray blocks)
  std::uint64_t* pair_dead_mask = nullptr;   // pairs*W (Gray blocks)
  std::uint8_t* pair_dirty = nullptr;        // pairs (Gray, multiroute)
  std::uint64_t* visited = nullptr;          // n*W
  std::uint64_t* new_mask = nullptr;         // n*W
  std::uint64_t* next_mask = nullptr;        // n*W

  // Worklists (capacities guaranteed by the caller).
  const std::uint32_t* lane_touched = nullptr;  // nodes with faulty lanes
  std::size_t lane_touched_count = 0;
  std::uint32_t* dirty_routes = nullptr;  // capacity: num routes (Gray)
  std::uint32_t* dirty_pairs = nullptr;   // num_pairs (Gray, multiroute)
  std::uint32_t* frontier = nullptr;      // capacity: n
  std::uint32_t* next = nullptr;          // capacity: n

  // Per-lane outputs, written for lanes [0, count). dead_pairs[l] counts
  // pairs with no live route in lane l (the kernel adds each dead mask —
  // a Gray block's dirty pairs, or every pair of an any-set block — into
  // a bit-sliced counter and transposes it here once per block); diam[l]
  // is the max finite eccentricity; disconnected has lane l set when some
  // survivor pair is unreachable there.
  std::uint32_t* dead_pairs = nullptr;    // 64*W
  std::uint32_t* diam = nullptr;          // 64*W
  std::uint64_t* disconnected = nullptr;  // W

  // Per-level lane masks (scratch, (n+1)*W each, level k at words
  // [k*W, (k+1)*W)). level_grew[k] holds the lanes one source's BFS
  // reached new nodes in at level k; diam_ge[k] accumulates, over the
  // sources, the lanes with eccentricity >= k, so diam[l] is read once per
  // block as the deepest k whose mask holds l. diam_ge arrives zero and is
  // left zero; level_grew is only read at levels the same BFS wrote.
  std::uint64_t* level_grew = nullptr;
  std::uint64_t* diam_ge = nullptr;
};

/// Runs one block: `count` lanes (1..64*W), `survivors` = the most
/// survivors any lane has (n - f for a Gray block). The BFS is skipped only
/// when no lane has two survivors; lanes with fewer come out with
/// diameter 0 either way.
using PackedBlockFn = void (*)(const PackedCtx& ctx, std::size_t count,
                               std::uint32_t survivors);

/// Maps W = `words` (1/2/4/8) to a block implementation: the signature of
/// the per-TU lookups and of select_block_fn().
using PackedBlockLookup = PackedBlockFn (*)(unsigned words);

/// Per-TU lookups: the TU's implementation for W = `words` (1/2/4/8),
/// or nullptr when that TU was compiled without its ISA.
PackedBlockFn packed_block_fn_portable(unsigned words);
PackedBlockFn packed_block_fn_avx2(unsigned words);
PackedBlockFn packed_block_fn_avx512(unsigned words);

/// Strongest implementation the running CPU supports for W = `words`.
/// Never nullptr for valid `words`.
PackedBlockFn select_block_fn(unsigned words);

}  // namespace ftr::packed
