// Differential suite for the SRG evaluation kernels (fault/srg_engine.hpp):
// bitset (word-packed BFS, every single-set evaluation) and packed (fault
// sets evaluated lane-parallel in width-parameterized blocks of
// 64/128/256/512 lanes, every exhaustive scan and long streamed chunk).
// The oracle is the one-shot surviving graph (tests/srg_oracle.hpp): a
// Digraph built from every route of the table, sharing no strike, base
// rows or index with either kernel; each Result field is checked against
// it (diameter, survivors = num_present(), arcs = num_arcs()). The library
// picks the kernel and the lane width itself, so the contract is tested
// three ways:
//  * every consumer — exhaustive Gray sweeps, streamed sweeps, the
//    adversary's Gray scan, tolerance checks, componentwise recovery —
//    must match a serial oracle loop over the same fault sets, at every
//    thread count in {1, 2, 8} and for every source kind, including
//    evaluation counts, early-stop points, and the reported witnesses;
//  * the packed block kernel, pinned per scratch to each lane width
//    (SrgScratch::set_lane_width) and to each block implementation the CPU
//    runs (portable/AVX2/AVX-512, SrgScratch::set_block_lookup_for_testing),
//    must match the oracle lane for lane on every construction table, for
//    full and partial blocks, on tables chosen to drive its BFS both
//    top-down and bottom-up, on a table mixing one- and two-route pairs
//    (single-route tables read their route masks as their pair masks),
//    and at the extremes of its bit-sliced dead-pair counter (0 to
//    num_pairs) and per-level diameter masks (BFS depths past 150 levels);
//  * the sparse strike behind every single-set evaluation (base rows minus
//    the pairs whose every route died) must match the oracle on planner,
//    kernel and multiroute tables, interleaved with single-lane packed
//    blocks on one scratch and across the epoch wrap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "fault/fault_gen.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/hypercube_routing.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"
#include "routing/tricircular.hpp"
#include "sim/recovery.hpp"
#include "srg_oracle.hpp"

namespace ftr {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};
// Each pins one LaneBlock<W> instantiation; the library itself always runs
// the auto width.
constexpr unsigned kExplicitWidths[] = {64, 128, 256, 512};

struct NamedTable {
  std::string name;
  Graph g;
  RoutingTable table;
  std::size_t f;  // fault budget for the exhaustive sweeps below
};

// Kernel, circular, and tri-circular constructions plus a hypercube —
// different route shapes (trees, concentrator stars, long ring chords) so
// the kernels see varied SRG densities and kill-index fan-outs.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back(
        {"kernel/torus", gg.graph, build_kernel_routing(gg.graph, 3).table, 2});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"circular/torus", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 2});
  }
  {
    const auto gg = cycle_graph(48);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tricircular/cycle", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  {
    const auto gg = hypercube(4);
    out.push_back({"kernel/hypercube", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 2});
  }
  return out;
}

// Every f-subset in revolving-door order, as the sweeps report them.
std::vector<std::vector<Node>> gray_sets(std::size_t n, std::size_t f) {
  std::vector<std::vector<Node>> sets;
  const std::uint64_t total = binomial(n, f);
  for (std::uint64_t r = 0; r < total; ++r) {
    const auto set = gray_subset_at_rank(n, f, r);
    sets.emplace_back(set.begin(), set.end());
  }
  return sets;
}

std::vector<std::vector<Node>> drain(FaultSetSource& source) {
  std::vector<std::vector<Node>> sets;
  std::vector<Node> set;
  while (source.next(set)) sets.push_back(set);
  return sets;
}

// The sweep aggregates a serial oracle loop over `sets` produces:
// histogram, disconnect count, and the first set attaining the maximum.
FaultSweepSummary oracle_summary(const SrgOracle& oracle,
                                 const std::vector<std::vector<Node>>& sets) {
  FaultSweepSummary out;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::uint32_t d = oracle.surviving_diameter(sets[i]);
    ++out.total_sets;
    if (d == kUnreachable) {
      ++out.disconnected;
    } else {
      if (d >= out.diameter_histogram.size()) {
        out.diameter_histogram.resize(d + 1, 0);
      }
      ++out.diameter_histogram[d];
    }
    if (i == 0 || d > out.worst_diameter) {
      out.worst_diameter = d;
      out.worst_index = i;
      out.worst_faults = sets[i];
    }
  }
  return out;
}

// Everything an evaluation kernel decides (delivery is compared against the
// generic engine separately).
void expect_same_evaluations(const FaultSweepSummary& oracle,
                             const FaultSweepSummary& got) {
  EXPECT_EQ(oracle.total_sets, got.total_sets);
  EXPECT_EQ(oracle.diameter_histogram, got.diameter_histogram);
  EXPECT_EQ(oracle.disconnected, got.disconnected);
  EXPECT_EQ(oracle.worst_diameter, got.worst_diameter);
  EXPECT_EQ(oracle.worst_index, got.worst_index);
  EXPECT_EQ(oracle.worst_faults, got.worst_faults);
}

// The serial oracle Gray scan: the first maximum in Gray order.
SweepPartial oracle_gray_scan(const SrgOracle& oracle, std::size_t f) {
  SweepPartial out;
  std::uint64_t rank = 0;
  for (const auto& set : gray_sets(oracle.num_nodes(), f)) {
    const std::uint32_t d = oracle.surviving_diameter(set);
    ++out.sets;
    if (!out.have_worst || d > out.worst_diameter) {
      out.have_worst = true;
      out.worst_diameter = d;
      out.worst_index = rank;
      out.worst_faults = set;
    }
    ++rank;
  }
  return out;
}

TEST(SrgKernels, ExhaustiveGrayMatchesOracle) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const std::size_t n = entry.g.num_nodes();
    const auto oracle =
        oracle_summary(SrgOracle(entry.table), gray_sets(n, entry.f));
    ASSERT_EQ(oracle.total_sets, binomial(n, entry.f));
    for (unsigned threads : kThreadCounts) {
      FaultSweepOptions opts;
      opts.exec.threads = threads;
      SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads));
      // Packed lane blocks...
      expect_same_evaluations(
          oracle, sweep_exhaustive_gray(entry.table, index, entry.f, opts));
      // ...and the same enumeration streamed as unrelated explicit sets
      // (any-set lane blocks where a chunk is long enough, else bitset).
      ExhaustiveGraySource source(n, entry.f);
      expect_same_evaluations(
          oracle, sweep_fault_source(entry.table, index, source, opts));
    }
  }
}

// Odd batch sizes shift every chunk boundary, so packed blocks straddle
// batches and end in partial (< lane_width) tails everywhere, including
// batches smaller than one block.
TEST(SrgKernels, ExhaustiveGrayBatchSizeInvariant) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto oracle = oracle_summary(SrgOracle(kr.table), gray_sets(25, 2));
  for (const std::size_t batch : {1u, 7u, 64u, 301u}) {
    FaultSweepOptions opts;
    opts.exec.threads = 2;
    opts.exec.batch_size = batch;
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_same_evaluations(oracle,
                            sweep_exhaustive_gray(kr.table, index, 2, opts));
  }
}

// A delivery sweep takes its diameters from packed Gray blocks and walks
// each set's routes against its fault stamps alone (SrgScratch::set_faults)
// — and must still match the oracle's evaluations and the generic engine's
// randomized per-pair delivery statistics exactly.
TEST(SrgKernels, ExhaustiveGrayDeliveryMatchesGenericEngine) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto oracle = oracle_summary(SrgOracle(kr.table), gray_sets(25, 2));
  FaultSweepOptions base_opts;
  base_opts.delivery_pairs = 4;
  base_opts.seed = 99;
  ExhaustiveGraySource source(25, 2);
  const auto generic = sweep_fault_source(kr.table, index, source, base_opts);
  EXPECT_GT(generic.pairs_sampled, 0u);
  for (unsigned threads : kThreadCounts) {
    FaultSweepOptions opts = base_opts;
    opts.exec.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto got = sweep_exhaustive_gray(kr.table, index, 2, opts);
    expect_same_evaluations(oracle, got);
    EXPECT_EQ(generic.pairs_sampled, got.pairs_sampled);
    EXPECT_EQ(generic.delivered, got.delivered);
    EXPECT_EQ(generic.avg_route_hops, got.avg_route_hops);
    EXPECT_EQ(generic.max_route_hops, got.max_route_hops);
    EXPECT_EQ(generic.max_edge_hops, got.max_edge_hops);
  }
}

TEST(SrgKernels, SampledStreamMatchesOracle) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const std::size_t n = entry.g.num_nodes();
    // 400 sets: chunks long enough for any-set lane blocks, whose
    // delivery reads the fault stamps alone.
    SampledStreamSource oracle_source(n, entry.f + 1, 400, 4242);
    const auto oracle =
        oracle_summary(SrgOracle(entry.table), drain(oracle_source));
    for (unsigned threads : kThreadCounts) {
      FaultSweepOptions opts;
      opts.exec.threads = threads;
      opts.delivery_pairs = 4;
      opts.seed = 4242;
      SampledStreamSource source(n, entry.f + 1, 400, 4242);
      SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads));
      expect_same_evaluations(
          oracle, sweep_fault_source(entry.table, index, source, opts));
    }
  }
}

TEST(SrgKernels, StdinSourceMatchesOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const std::string feed =
      "# hand-written fault sets\n"
      "0 1 2\n"
      "\n"
      "24\n"
      "3 17\n"
      "5 6 7 8 9 10\n"
      "12 18 24\n";

  std::istringstream oracle_in(feed);
  IstreamFaultSetSource oracle_source(oracle_in, gg.graph.num_nodes());
  const auto oracle = oracle_summary(SrgOracle(kr.table), drain(oracle_source));
  ASSERT_EQ(oracle.total_sets, 5u);

  for (unsigned threads : kThreadCounts) {
    FaultSweepOptions opts;
    opts.exec.threads = threads;
    std::istringstream in(feed);
    IstreamFaultSetSource source(in, gg.graph.num_nodes());
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_evaluations(oracle,
                            sweep_fault_source(kr.table, index, source, opts));
  }
}

// The check's exhaustive unit (one Gray sweep unit, no delivery) reports
// the oracle's first maximum in Gray order and its set count.
TEST(SrgKernels, CheckGrayUnitMatchesOracle) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const auto oracle = oracle_gray_scan(SrgOracle(entry.table), entry.f);
    for (unsigned threads : kThreadCounts) {
      ToleranceCheckOptions opts;
      opts.exec.threads = threads;
      const auto got =
          check_tolerance(index, static_cast<std::uint32_t>(entry.f),
                          /*claimed_bound=*/6, /*seed=*/1, opts);
      SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads));
      ASSERT_TRUE(got.exhaustive);
      EXPECT_EQ(oracle.worst_diameter, got.worst_diameter);
      EXPECT_EQ(oracle.worst_faults, got.worst_faults);
      EXPECT_EQ(oracle.sets, got.fault_sets_checked);
    }
  }
}

TEST(SrgKernels, ToleranceCheckMatchesOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgOracle reference(kr.table);

  // The exhaustive Gray scan (f = 2 fits the budget): verdict, witness and
  // set count are the oracle's...
  {
    const auto oracle = oracle_gray_scan(reference, 2);
    for (unsigned threads : kThreadCounts) {
      ToleranceCheckOptions opts;
      opts.exec.threads = threads;
      Rng rng(7);
      const auto got = check_tolerance(kr.table, 2, 10, rng, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_TRUE(got.exhaustive);
      EXPECT_EQ(got.worst_diameter, oracle.worst_diameter);
      EXPECT_EQ(got.worst_faults, oracle.worst_faults);
      EXPECT_EQ(got.fault_sets_checked, oracle.sets);
      EXPECT_EQ(got.holds, oracle.worst_diameter <= 10);
    }
  }

  // ...and the sampled + hill-climbing path (budget forced below C(25, 2))
  // reports a witness the oracle re-evaluates to the reported diameter,
  // identically at every thread count.
  {
    ToleranceCheckOptions base_opts;
    base_opts.exhaustive_budget = 50;
    base_opts.samples = 40;
    Rng base_rng(7);
    const auto base = check_tolerance(kr.table, 2, 10, base_rng, base_opts);
    EXPECT_FALSE(base.exhaustive);
    EXPECT_EQ(reference.surviving_diameter(base.worst_faults),
              base.worst_diameter);
    for (unsigned threads : kThreadCounts) {
      ToleranceCheckOptions opts = base_opts;
      opts.exec.threads = threads;
      Rng rng(7);
      const auto got = check_tolerance(kr.table, 2, 10, rng, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(base.summary(), got.summary());
      EXPECT_EQ(base.worst_faults, got.worst_faults);
    }
  }
}

TEST(SrgKernels, SingleSetBitsetMatchesOneShotOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const SrgOracle oracle(kr.table);
  SrgScratch bitset(index);

  Rng rng(31);
  for (std::size_t f : {0u, 1u, 3u, 6u, 12u, 22u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      const auto a = oracle.evaluate(faults);
      const auto b = bitset.evaluate(faults);
      EXPECT_EQ(a.diameter, b.diameter) << "f=" << f;
      EXPECT_EQ(a.survivors, b.survivors);
      EXPECT_EQ(a.arcs, b.arcs);
    }
  }
  // Duplicate fault ids collapse identically on both paths.
  const std::vector<Node> dup{2, 2, 5};
  EXPECT_EQ(oracle.surviving_diameter(dup), bitset.surviving_diameter(dup));
}

// The open-problem-3 metric from the oracle: survivors and components of
// G - F, and the worst same-component distance in the surviving graph.
ComponentwiseDiameter oracle_componentwise(const Graph& g,
                                           const SrgOracle& oracle,
                                           const std::vector<Node>& faults) {
  const auto comp = connected_components(g.without_nodes(faults));
  const Digraph r = oracle.graph(faults);
  std::vector<std::uint32_t> ids;
  for (Node v : r.present_nodes()) ids.push_back(comp[v]);
  std::sort(ids.begin(), ids.end());
  ComponentwiseDiameter out;
  out.survivors = r.num_present();
  out.num_components = static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  out.worst = oracle.componentwise_diameter(faults, comp);
  return out;
}

TEST(SrgKernels, ComponentwiseSweepMatchesOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(515);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 5, 12, rng);
  const SrgOracle oracle(kr.table);
  for (unsigned threads : kThreadCounts) {
    const auto got =
        componentwise_sweep(gg.graph, index, sets, ExecPolicy{.threads = threads});
    ASSERT_EQ(sets.size(), got.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const auto expect = oracle_componentwise(gg.graph, oracle, sets[i]);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " set " +
                   std::to_string(i));
      EXPECT_EQ(expect.worst, got[i].worst);
      EXPECT_EQ(expect.num_components, got[i].num_components);
      EXPECT_EQ(expect.survivors, got[i].survivors);
    }
  }
}

// set_lane_width / lane_width round-trip: explicit widths are honored,
// 0 re-resolves to the auto width, and re-setting re-sizes the scratch.
TEST(SrgKernels, ScratchLaneWidthRoundTrip) {
  const auto gg = cycle_graph(10);
  RouteTableBuilder builder(10, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch scratch(index);
  for (unsigned lanes : kExplicitWidths) {
    scratch.set_lane_width(lanes);
    EXPECT_EQ(scratch.lane_width(), lanes);
  }
  scratch.set_lane_width(0);
  EXPECT_TRUE(is_valid_lane_width(scratch.lane_width()));
}

// The packed block implementations this host can run: the portable TU
// always, the AVX2 and AVX-512 TUs when they were compiled with their ISA
// and cpuid reports it. By default a scratch only ever runs the strongest
// (packed::select_block_fn), so the rest are pinned explicitly.
struct BlockImpl {
  std::string isa;
  packed::PackedBlockLookup lookup;
};

std::vector<BlockImpl> runnable_block_impls() {
  std::vector<BlockImpl> out = {
      {"portable", &packed::packed_block_fn_portable}};
  const CpuFeatures& cpu = cpu_features();
  if (cpu.avx2 && packed::packed_block_fn_avx2(1) != nullptr) {
    out.push_back({"avx2", &packed::packed_block_fn_avx2});
  }
  if (cpu.avx512f && packed::packed_block_fn_avx512(1) != nullptr) {
    out.push_back({"avx512", &packed::packed_block_fn_avx512});
  }
  return out;
}

// Walks the first `max_sets` f-subsets (all of them by default) of the
// table's nodes in Gray order through the packed kernel, under every
// runnable block implementation and pinned to each width, in blocks of
// `width` sets (the shape the exhaustive scans use) and of width / 2 + 3
// (every block partial, with a partly filled last word), and checks each
// lane against the oracle's evaluation of the same set. Returns the
// oracle's results.
template <typename Table>
std::vector<SrgScratch::Result> expect_packed_matches_oracle(
    const Table& table, std::size_t f, const std::string& name,
    std::size_t max_sets = SIZE_MAX) {
  const SrgIndex index(table);
  const std::size_t n = index.num_nodes();
  auto sets = gray_sets(n, f);
  if (sets.size() > max_sets) sets.resize(max_sets);
  const SrgOracle oracle(table);
  std::vector<SrgScratch::Result> expect;
  for (const auto& set : sets) expect.push_back(oracle.evaluate(set));
  for (const BlockImpl& impl : runnable_block_impls()) {
    for (const unsigned width : kExplicitWidths) {
      for (const std::size_t block : {std::size_t{width},
                                      std::size_t{width / 2 + 3}}) {
        SrgScratch packed(index);
        packed.set_lane_width(width);
        packed.set_block_lookup_for_testing(impl.lookup);
        GraySubsetEnumerator e(n, f);
        SrgScratch::Result out[kMaxLaneWidth];
        std::size_t rank = 0;
        while (rank < sets.size()) {
          const std::size_t cnt = std::min(block, sets.size() - rank);
          packed.evaluate_gray_block(e, cnt, out);
          for (std::size_t i = 0; i < cnt; ++i) {
            SCOPED_TRACE(name + " f=" + std::to_string(f) + " isa=" +
                         impl.isa + " width=" + std::to_string(width) +
                         " block=" + std::to_string(block) + " rank=" +
                         std::to_string(rank + i));
            EXPECT_EQ(expect[rank + i].diameter, out[i].diameter);
            EXPECT_EQ(expect[rank + i].survivors, out[i].survivors);
            EXPECT_EQ(expect[rank + i].arcs, out[i].arcs);
          }
          rank += cnt;
          if (rank < sets.size() && !e.advance()) {
            ADD_FAILURE() << name << ": enumeration ended early";
            return expect;
          }
        }
      }
    }
  }
  return expect;
}

// The ISA pin is honored per scratch (the lookup sees the pinned width's
// word count), a lookup without a body for the width is a contract
// violation at the next block, and nullptr restores the default chooser.
TEST(SrgKernels, BlockLookupPinIsHonoredAndReset) {
  static unsigned seen_words = 0;
  const packed::PackedBlockLookup spy = [](unsigned words) {
    seen_words = words;
    return packed::packed_block_fn_portable(words);
  };
  const packed::PackedBlockLookup empty = [](unsigned) {
    return packed::PackedBlockFn{nullptr};
  };
  const auto gg = cycle_graph(10);
  RouteTableBuilder builder(10, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  const SrgOracle oracle(t);
  const auto first = gray_subset_at_rank(10, 2, 0);
  const auto want =
      oracle.evaluate(std::vector<Node>(first.begin(), first.end()));

  SrgScratch scratch(index);
  SrgScratch::Result out[kMaxLaneWidth];
  for (const unsigned width : kExplicitWidths) {
    scratch.set_lane_width(width);
    scratch.set_block_lookup_for_testing(spy);
    GraySubsetEnumerator e(10, 2);
    scratch.evaluate_gray_block(e, 1, out);
    EXPECT_EQ(seen_words, width / 64);
    EXPECT_EQ(want.diameter, out[0].diameter);
    EXPECT_EQ(want.arcs, out[0].arcs);
  }
  scratch.set_block_lookup_for_testing(empty);
  GraySubsetEnumerator e(10, 2);
  EXPECT_THROW(scratch.evaluate_gray_block(e, 1, out), ContractViolation);
  scratch.set_block_lookup_for_testing(nullptr);
  scratch.set_lane_width(0);
  seen_words = 0;
  GraySubsetEnumerator e2(10, 2);
  scratch.evaluate_gray_block(e2, 1, out);
  EXPECT_EQ(seen_words, 0u);
  EXPECT_EQ(want.diameter, out[0].diameter);
  EXPECT_EQ(want.arcs, out[0].arcs);
}

// Every construction table, walked through its whole Gray enumeration at
// each pinned width, matches the oracle set for set.
TEST(SrgKernels, PackedBlocksMatchOracleAtEveryWidth) {
  for (const auto& entry : construction_tables()) {
    expect_packed_matches_oracle(entry.table, entry.f, entry.name);
  }
}

// The packed BFS picks top-down or bottom-up per level from the frontier's
// density; these tables drive both directions against the oracle.
TEST(SrgKernels, PackedBfsDirectionsMatchOracle) {
  {
    // Edge routes only: R/F = G - F, so from each source the frontier is
    // two nodes wide for ~20 levels (top-down) before the few unreached
    // nodes left make it dense (bottom-up). Two non-adjacent faults split
    // the ring, so most sets disconnect.
    const auto gg = cycle_graph(48);
    RouteTableBuilder builder(48, RoutingMode::kBidirectional);
    install_edge_routes(builder, gg.graph);
    const RoutingTable t = std::move(builder).build();
    expect_packed_matches_oracle(t, 2, "edge-only/cycle48");
  }
  {
    // Four disjoint routes per pair: a pair dies only when every one of its
    // routes is hit, which five faults sometimes manage.
    const auto gg = hypercube(4);
    expect_packed_matches_oracle(build_full_multirouting(gg.graph, 3), 5,
                                 "full-multirouting/hypercube4");
  }
  {
    // Unidirectional bit-fixing: rho(x, y) and rho(y, x) differ, so a
    // node's in-pairs are not its out-pairs reversed. Four faults kill
    // pairs by their interior nodes, so bottom-up levels must honor the
    // pair dead masks, not just the endpoints' fault lanes.
    const auto gg = hypercube(4);
    expect_packed_matches_oracle(build_bitfixing_unidirectional(gg.graph, 4),
                                 4, "bitfixing-unidirectional/hypercube4");
  }
  {
    // Two survivors (connected or not), one survivor, none.
    const auto gg = cycle_graph(5);
    RouteTableBuilder builder(5, RoutingMode::kBidirectional);
    install_edge_routes(builder, gg.graph);
    const RoutingTable t = std::move(builder).build();
    for (const std::size_t f : {3u, 4u, 5u}) {
      expect_packed_matches_oracle(t, f, "edge-only/cycle5");
    }
  }
}

// Gray blocks read a table with one route per pair through its route kill
// masks alone (route r is pair r); any other table keeps its pair dead
// masks, the AND of each pair's route masks. This table mixes the two
// shapes, so the shortcut must wait for *every* pair to have one route:
// edge routes on Q(4), plus a disjoint second route for a few edge pairs
// and a two-route non-edge pair, which gives nodes 0 and 3 five in-pairs
// (a full group of bottom-up probes then a tail). The tails alone are
// driven by the in-degree-2 cycle tables above, and full groups by the
// hypercube tables.
TEST(SrgKernels, PackedBlocksMatchOracleOnMixedRouteCounts) {
  const auto gg = hypercube(4);
  RouteTableBuilder builder(16, RoutingMode::kBidirectional, 2);
  install_edge_routes(builder, gg.graph);
  builder.set_route({0, 2, 3, 1});
  builder.set_route({4, 6, 7, 5});
  builder.set_route({8, 12, 13, 9});
  builder.set_route({0, 1, 3});
  builder.set_route({0, 2, 3});
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  ASSERT_GT(index.num_routes(), index.num_pairs());
  ASSERT_LT(index.num_routes(), 2 * index.num_pairs());
  ASSERT_EQ(index.pairs_into(3).size(), 5u);
  for (const std::size_t f : {2u, 3u}) {
    expect_packed_matches_oracle(t, f, "mixed-route-counts/hypercube4");
  }
}

// Direct block-kernel contract: evaluate_gray_block's lanes must agree
// lane-for-lane with per-set evaluate() at the matching gray ranks, at
// every width, for partial tail blocks (count < lane_width, including
// non-word-multiple counts that leave a partially-filled word) and full
// blocks, on a table where many sets disconnect (the ring) — the
// disconnect bit and the early lane-drop are the subtle parts.
TEST(SrgKernels, PackedBlockMatchesPerSetEvaluate) {
  const auto gg = cycle_graph(12);
  RouteTableBuilder builder(12, RoutingMode::kBidirectional);
  install_edge_routes(builder, gg.graph);
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  const SrgOracle rebuild(t);

  constexpr std::size_t kBlockSizes[] = {1,   7,   33,  64,  65,  127,
                                         128, 129, 255, 256, 311, 512};
  for (const unsigned width : kExplicitWidths) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    for (const std::size_t block : kBlockSizes) {
      if (block > width) continue;
      GraySubsetEnumerator e(12, 2);  // C(12,2) = 66 sets
      const std::uint64_t total = e.count();
      std::uint64_t rank = 0;
      SrgScratch::Result out[512];
      while (rank < total) {
        const std::size_t cnt = static_cast<std::size_t>(
            std::min<std::uint64_t>(block, total - rank));
        packed.evaluate_gray_block(e, cnt, out);
        for (std::size_t i = 0; i < cnt; ++i) {
          const auto set64 = gray_subset_at_rank(12, 2, rank + i);
          const std::vector<Node> faults(set64.begin(), set64.end());
          const auto expect = rebuild.evaluate(faults);
          SCOPED_TRACE("width=" + std::to_string(width) + " block=" +
                       std::to_string(block) + " rank=" +
                       std::to_string(rank + i));
          EXPECT_EQ(expect.diameter, out[i].diameter);
          EXPECT_EQ(expect.survivors, out[i].survivors);
          EXPECT_EQ(expect.arcs, out[i].arcs);
        }
        rank += cnt;
        if (rank < total) {
          ASSERT_TRUE(e.advance());
        }
      }
    }
  }
}

// A single block wider than one word whose count fills several words plus a
// partial tail: the lanes past `count` must stay dead through every phase
// (a stray live lane would corrupt the worklists the NEXT block inherits).
TEST(SrgKernels, PackedBlockTailLanesStayDead) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch rebuild(index);
  const std::uint64_t total = GraySubsetEnumerator(16, 2).count();  // 120

  for (const unsigned width : {256u, 512u}) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    // 120 sets in one 256/512-lane block: 1 full word + a 56-lane tail.
    GraySubsetEnumerator e(16, 2);
    SrgScratch::Result out[512];
    packed.evaluate_gray_block(e, static_cast<std::size_t>(total), out);
    // The same scratch must then evaluate a fresh enumeration cleanly (the
    // sparse cleanup has to have erased all tail-lane state).
    GraySubsetEnumerator e2(16, 2);
    SrgScratch::Result out2[512];
    packed.evaluate_gray_block(e2, 64, out2);
    for (std::size_t i = 0; i < 64; ++i) {
      SCOPED_TRACE("width=" + std::to_string(width) + " rank=" +
                   std::to_string(i));
      EXPECT_EQ(out[i].diameter, out2[i].diameter);
      EXPECT_EQ(out[i].survivors, out2[i].survivors);
      EXPECT_EQ(out[i].arcs, out2[i].arcs);
      const auto set64 = gray_subset_at_rank(16, 2, i);
      const std::vector<Node> faults(set64.begin(), set64.end());
      EXPECT_EQ(rebuild.evaluate(faults).diameter, out[i].diameter);
    }
  }
}

// Survivor counts of 1 and 0 pin diameter to 0 by definition; the packed
// kernel must get that from its lane masks, not from a BFS — at every
// width.
TEST(SrgKernels, PackedBlockFewSurvivors) {
  RouteTableBuilder builder(3, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({1, 2});
  builder.set_route({0, 1, 2});
  const RoutingTable t = std::move(builder).build();
  const SrgIndex index(t);
  SrgScratch rebuild(index);

  for (const unsigned width : kExplicitWidths) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    GraySubsetEnumerator e(3, 2);  // 3 sets, every one leaves 1 survivor
    SrgScratch::Result out[512];
    packed.evaluate_gray_block(e, 3, out);
    for (std::size_t i = 0; i < 3; ++i) {
      const auto set64 = gray_subset_at_rank(3, 2, i);
      const std::vector<Node> faults(set64.begin(), set64.end());
      const auto expect = rebuild.evaluate(faults);
      SCOPED_TRACE("width=" + std::to_string(width));
      EXPECT_EQ(expect.diameter, out[i].diameter);
      EXPECT_EQ(out[i].diameter, 0u);
      EXPECT_EQ(expect.survivors, out[i].survivors);
      EXPECT_EQ(expect.arcs, out[i].arcs);
    }
  }
}

// Random sets for any-set blocks: sizes 0..max_f mixed within one block,
// every fifth set with a duplicated id, and — every 37th set — one that
// leaves a single survivor or none, so those lanes sit next to normal ones
// in the same block.
std::vector<std::vector<Node>> mixed_sets(std::size_t n, std::size_t max_f,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::vector<std::vector<Node>> sets;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = Rng::stream(seed, i);
    std::vector<Node> set;
    if (i % 37 == 11) {
      for (Node v = 0; v < n; ++v) {
        if (v != i % n || i % 2 == 0) set.push_back(v);
      }
    } else {
      const auto sample = rng.sample(n, rng.below(max_f + 1));
      set.assign(sample.begin(), sample.end());
      if (i % 5 == 0 && !set.empty()) set.push_back(set.front());
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

// evaluate_block on `sets`, under every runnable block implementation and
// pinned to each width, in blocks of `width` sets and of width / 2 + 3
// (partial blocks with a partly filled last word), must match per-set
// evaluate() and the oracle lane for lane.
template <typename Table>
void expect_any_set_blocks_match(const Table& table,
                                 const std::vector<std::vector<Node>>& sets,
                                 const std::string& name) {
  const SrgIndex index(table);
  const SrgOracle oracle(table);
  SrgScratch bitset(index);
  std::vector<SrgScratch::Result> expect;
  for (const auto& set : sets) {
    expect.push_back(oracle.evaluate(set));
    const auto got = bitset.evaluate(set);
    ASSERT_EQ(expect.back().diameter, got.diameter) << name;
    ASSERT_EQ(expect.back().survivors, got.survivors) << name;
    ASSERT_EQ(expect.back().arcs, got.arcs) << name;
  }
  for (const BlockImpl& impl : runnable_block_impls()) {
    for (const unsigned width : kExplicitWidths) {
      for (const std::size_t block : {std::size_t{width},
                                      std::size_t{width / 2 + 3}}) {
        SrgScratch packed(index);
        packed.set_lane_width(width);
        packed.set_block_lookup_for_testing(impl.lookup);
        SrgScratch::Result out[kMaxLaneWidth];
        for (std::size_t at = 0; at < sets.size(); at += block) {
          const std::size_t cnt = std::min(block, sets.size() - at);
          packed.evaluate_block(
              std::span<const std::vector<Node>>(sets).subspan(at, cnt), out);
          for (std::size_t i = 0; i < cnt; ++i) {
            SCOPED_TRACE(name + " isa=" + impl.isa + " width=" +
                         std::to_string(width) + " block=" +
                         std::to_string(block) + " set=" +
                         std::to_string(at + i));
            EXPECT_EQ(expect[at + i].diameter, out[i].diameter);
            EXPECT_EQ(expect[at + i].survivors, out[i].survivors);
            EXPECT_EQ(expect[at + i].arcs, out[i].arcs);
          }
        }
      }
    }
  }
}

// Any-set blocks on every construction table the suite builds, multiroute
// and unidirectional included, with f mixed inside each block.
TEST(SrgKernels, AnySetBlocksMatchEvaluateAndOracle) {
  std::uint64_t seed = 71;
  for (const auto& entry : construction_tables()) {
    expect_any_set_blocks_match(
        entry.table,
        mixed_sets(entry.table.num_nodes(), entry.f + 3, 700, ++seed),
        entry.name);
  }
  const auto q4 = hypercube(4);
  expect_any_set_blocks_match(build_full_multirouting(q4.graph, 3),
                              mixed_sets(16, 6, 300, ++seed),
                              "full-multirouting/hypercube4");
  expect_any_set_blocks_match(build_bitfixing_unidirectional(q4.graph, 4),
                              mixed_sets(16, 5, 300, ++seed),
                              "bitfixing-unidirectional/hypercube4");
  // Edge routes on a ring: two faults split it, so most lanes disconnect
  // while their neighbours in the block stay connected.
  const auto ring = cycle_graph(48);
  RouteTableBuilder builder(48, RoutingMode::kBidirectional);
  install_edge_routes(builder, ring.graph);
  const RoutingTable t = std::move(builder).build();
  expect_any_set_blocks_match(t, mixed_sets(48, 3, 300, ++seed),
                              "edge-only/cycle48");
}

// A block holding one lane with a single survivor (or none) and lanes that
// need the BFS: the kernel's survivors gate must not skip the block.
TEST(SrgKernels, AnySetBlockFewSurvivorLaneDoesNotGateTheBlock) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  std::vector<Node> all_but_one;
  for (Node v = 1; v < 16; ++v) all_but_one.push_back(v);
  std::vector<Node> all = all_but_one;
  all.push_back(0);
  all.push_back(3);  // a duplicate too
  const std::vector<std::vector<Node>> sets = {
      all_but_one, {}, {5}, all, {2, 2, 9}};
  const SrgOracle oracle(kr.table);
  for (const unsigned width : kExplicitWidths) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    for (std::size_t first = 0; first < 2; ++first) {
      const auto block =
          std::span<const std::vector<Node>>(sets).subspan(first);
      SrgScratch::Result out[kMaxLaneWidth];
      packed.evaluate_block(block, out);
      for (std::size_t i = 0; i < block.size(); ++i) {
        const auto want = oracle.evaluate(block[i]);
        SCOPED_TRACE("width=" + std::to_string(width) + " lane=" +
                     std::to_string(i));
        EXPECT_EQ(want.diameter, out[i].diameter);
        EXPECT_EQ(want.survivors, out[i].survivors);
        EXPECT_EQ(want.arcs, out[i].arcs);
      }
    }
    EXPECT_EQ(packed.evaluate(sets[2]).diameter,
              oracle.evaluate(sets[2]).diameter);
  }
}

// evaluate_sets cuts any number of sets into lane blocks, packs the blocks
// of at least kMinAnySetBlock sets and runs the rest set by set; either
// way each set gets exactly evaluate()'s Result. Counts straddle the
// threshold and the lane width at every pinned width.
TEST(SrgKernels, EvaluateSetsMatchesEvaluateAtEveryCount) {
  const auto gg = torus_graph(6, 6);
  const SrgIndex index(build_kernel_routing(gg.graph, 3).table);
  const auto sets = mixed_sets(36, 5, 1200, 91);
  SrgScratch bitset(index);
  std::vector<SrgScratch::Result> expect;
  for (const auto& set : sets) expect.push_back(bitset.evaluate(set));
  for (const unsigned width : kExplicitWidths) {
    SrgScratch scratch(index);
    scratch.set_lane_width(width);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, kMinAnySetBlock - 1,
          kMinAnySetBlock, std::size_t{width}, width + kMinAnySetBlock - 1,
          width + kMinAnySetBlock, 2 * std::size_t{width} + 1,
          sets.size()}) {
      std::vector<SrgScratch::Result> out(count);
      scratch.evaluate_sets(
          std::span<const std::vector<Node>>(sets).first(count), out.data());
      for (std::size_t i = 0; i < count; ++i) {
        SCOPED_TRACE("width=" + std::to_string(width) + " count=" +
                     std::to_string(count) + " set=" + std::to_string(i));
        EXPECT_EQ(expect[i].diameter, out[i].diameter);
        EXPECT_EQ(expect[i].survivors, out[i].survivors);
        EXPECT_EQ(expect[i].arcs, out[i].arcs);
      }
    }
  }
}

// Out-of-range ids are contract violations, as for evaluate(), and leave
// the scratch clean for the next block; so do empty and oversized blocks.
TEST(SrgKernels, AnySetBlockRejectsBadInputCleanly) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch packed(index);
  packed.set_lane_width(64);
  SrgScratch::Result out[kMaxLaneWidth];
  const std::vector<std::vector<Node>> bad = {{1, 2}, {3, 16}};
  EXPECT_THROW(packed.evaluate_block(bad, out), ContractViolation);
  EXPECT_THROW(packed.evaluate_block({}, out), ContractViolation);
  const std::vector<std::vector<Node>> too_many(65);
  EXPECT_THROW(packed.evaluate_block(too_many, out), ContractViolation);
  const std::vector<std::vector<Node>> good = {{1, 2}, {3}};
  packed.evaluate_block(good, out);
  const SrgOracle oracle(kr.table);
  for (std::size_t i = 0; i < good.size(); ++i) {
    EXPECT_EQ(oracle.evaluate(good[i]).diameter, out[i].diameter);
    EXPECT_EQ(oracle.evaluate(good[i]).arcs, out[i].arcs);
  }
}

// The largest finite diameter and the dead-pair counts (num_pairs - arcs)
// among `results`.
std::uint32_t max_finite_diameter(
    const std::vector<SrgScratch::Result>& results) {
  std::uint32_t worst = 0;
  for (const auto& r : results) {
    if (r.diameter != kUnreachable) worst = std::max(worst, r.diameter);
  }
  return worst;
}

std::vector<std::uint32_t> dead_pair_counts(
    const SrgIndex& index, const std::vector<SrgScratch::Result>& results) {
  std::vector<std::uint32_t> counts;
  for (const auto& r : results) {
    counts.push_back(static_cast<std::uint32_t>(index.num_pairs()) - r.arcs);
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// The kernel's bit-sliced dead-pair counter and per-level diameter masks at
// their extremes, under every runnable ISA, at every width, for full and
// partial blocks.
TEST(SrgKernels, PackedCountersAndLevelMasksAtTheirExtremes) {
  {
    // Dead-pair counts from 0 to num_pairs. Terminals 0..11 route all 132
    // ordered pairs among them, one route each. Relay r_c lies on the
    // routes of exactly the first c pairs, so faulting it kills exactly c
    // pairs; the counts sit on both sides of every power of two up to
    // num_pairs, and r_132 is on every route. The last six nodes carry no
    // route, so faulting them kills nothing.
    constexpr Node kTerminals = 12;
    const std::vector<std::uint32_t> relay_counts = {
        1,  2,  3,  4,  5,  7,  8,   9,   15,  16,  17,
        31, 32, 33, 63, 64, 65, 127, 128, 129, 131, 132};
    const std::size_t n = kTerminals + relay_counts.size() + 6;
    RouteTableBuilder builder(n, RoutingMode::kUnidirectional);
    std::uint32_t pair = 0;
    for (Node x = 0; x < kTerminals; ++x) {
      for (Node y = 0; y < kTerminals; ++y) {
        if (x == y) continue;
        Path route = {x};
        for (std::size_t j = 0; j < relay_counts.size(); ++j) {
          if (pair < relay_counts[j]) {
            route.push_back(static_cast<Node>(kTerminals + j));
          }
        }
        route.push_back(y);
        builder.set_route(route);
        ++pair;
      }
    }
    const RoutingTable t = std::move(builder).build();
    const SrgIndex index(t);
    ASSERT_EQ(index.num_pairs(), 132u);
    for (const std::size_t f : {1u, 2u}) {
      const auto expect =
          expect_packed_matches_oracle(t, f, "dead-pair-spread");
      const auto counts = dead_pair_counts(index, expect);
      EXPECT_EQ(counts.front(), 0u);
      EXPECT_EQ(counts.back(), 132u);
      for (const std::uint32_t c : relay_counts) {
        EXPECT_TRUE(std::binary_search(counts.begin(), counts.end(), c))
            << "f=" << f << " never kills exactly " << c << " pairs";
      }
    }
  }
  {
    // Edge routes on a 160-ring: with one fault, or two adjacent ones, the
    // survivors form a path whose BFS runs 157-158 levels deep, far past
    // one word of levels. Two faults are checked on the first 600 sets —
    // a full 512-lane block plus partial ones — since every block holding a
    // connected lane runs all those levels from every source.
    const auto gg = cycle_graph(160);
    RouteTableBuilder builder(160, RoutingMode::kBidirectional);
    install_edge_routes(builder, gg.graph);
    const RoutingTable t = std::move(builder).build();
    EXPECT_EQ(max_finite_diameter(
                  expect_packed_matches_oracle(t, 1, "edge-only/cycle160")),
              158u);
    EXPECT_EQ(max_finite_diameter(expect_packed_matches_oracle(
                  t, 2, "edge-only/cycle160", 600)),
              157u);
  }
}

// --- sparse strike -----------------------------------------------------------
//
// evaluate() derives a set's surviving route graph from the routes through
// its faults; the oracle builds it from every route. Both must agree on
// every Result field for every table shape and fault-set shape.

void expect_same_result(const SrgScratch::Result& want,
                        const SrgScratch::Result& got) {
  EXPECT_EQ(want.diameter, got.diameter);
  EXPECT_EQ(want.survivors, got.survivors);
  EXPECT_EQ(want.arcs, got.arcs);
}

// f = 0, duplicate ids, endpoint faults, random sets of several sizes, and
// the extremes: n - 2 and n - 1 faults (two and one survivors) and all n.
std::vector<std::vector<Node>> strike_sets(std::size_t n, std::uint64_t seed) {
  const auto last = static_cast<Node>(n - 1);
  std::vector<std::vector<Node>> sets = {
      {}, {0}, {last}, {0, last}, {1, 1}, {2, 0, 2, 2}, {last, 0, last}};
  Rng rng(seed);
  for (const std::size_t f : {1u, 2u, 3u, 5u, 8u}) {
    for (auto& set : random_fault_sets(n, f, 6, rng)) {
      sets.push_back(std::move(set));
    }
  }
  std::vector<Node> all(n);
  std::iota(all.begin(), all.end(), Node{0});
  sets.push_back(all);
  for (const Node keep : {Node{0}, static_cast<Node>(n / 2), last}) {
    std::vector<Node> set;
    for (Node v : all) {
      if (v != keep) set.push_back(v);
    }
    sets.push_back(set);
  }
  sets.emplace_back(all.begin() + 2, all.end());
  // A repeat of an earlier set after heavier ones: stale dead bits from the
  // sets in between must not survive into it.
  sets.push_back(sets[10]);
  return sets;
}

// Ordered pairs of `table` that `faults` strike on some but not all of
// their routes — the case a multiroute pair must survive.
std::size_t partially_struck_pairs(const RoutingTable& table,
                                   const std::vector<Node>& faults) {
  std::size_t partial = 0;
  table.for_each_view([&](Node x, Node y, PathView first) {
    const auto routes = table.routes(x, y);
    if (first.data() != routes.front().data()) return;  // each pair once
    std::size_t hit = 0;
    for (PathView path : routes) {
      const bool struck =
          std::any_of(path.begin(), path.end(), [&](Node v) {
            return std::find(faults.begin(), faults.end(), v) != faults.end();
          });
      if (struck) ++hit;
    }
    if (hit > 0 && hit < routes.size()) ++partial;
  });
  return partial;
}

// Set i through one scratch: a single-lane packed block when `packed`
// says so, else evaluate(). The packed block leaves the strike state
// alone, so the next evaluate() must still rebuild everything it reads.
SrgScratch::Result evaluate_one(SrgScratch& scratch,
                                const std::vector<Node>& set, bool packed) {
  if (!packed) return scratch.evaluate(set);
  SrgScratch::Result out[1];
  scratch.evaluate_block(std::span<const std::vector<Node>>(&set, 1), out);
  return out[0];
}

// Every set through a bitset scratch, and through one scratch that runs
// two sets as packed blocks and the next two through evaluate(), against
// the oracle.
template <typename Table>
void expect_sparse_strike_matches_oracle(
    const Table& table, const std::vector<std::vector<Node>>& sets,
    const std::string& name) {
  const SrgIndex index(table);
  const SrgOracle oracle(table);
  SrgScratch bitset(index), toggled(index);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    SCOPED_TRACE(name + " set " + std::to_string(i));
    const auto want = oracle.evaluate(sets[i]);
    expect_same_result(want, bitset.evaluate(sets[i]));
    expect_same_result(want,
                       evaluate_one(toggled, sets[i], (i / 2) % 2 == 0));
  }
}

TEST(SrgKernels, SparseStrikeMatchesOracle) {
  Rng rng(808);
  {
    // Planner-built torus, as the streamed e2e sweep runs it; 81 nodes
    // give two-word rows with a partial last word.
    const auto gg = torus_graph(9, 9);
    const auto planned = build_planned_routing(gg.graph, std::nullopt, rng);
    expect_sparse_strike_matches_oracle(planned.table, strike_sets(81, 1),
                                        "planner/torus9");
  }
  for (const auto& entry : construction_tables()) {
    expect_sparse_strike_matches_oracle(
        entry.table, strike_sets(entry.g.num_nodes(), 2), entry.name);
  }
  {
    // Four disjoint routes per pair: most struck pairs keep a route.
    const auto gg = hypercube(4);
    const RoutingTable table = build_full_multirouting(gg.graph, 3);
    const auto sets = strike_sets(16, 3);
    std::size_t partial = 0;
    for (const auto& set : sets) partial += partially_struck_pairs(table, set);
    ASSERT_GT(partial, 0u);
    expect_sparse_strike_matches_oracle(table, sets,
                                        "full-multirouting/hypercube4");
  }
}

// One pair, two routes: the pair survives either route's death and dies
// only with both; the arc count says so exactly.
TEST(SrgKernels, SparseStrikeKillsMultiroutePairWithItsLastRoute) {
  RouteTableBuilder builder(6, RoutingMode::kUnidirectional, 2);
  builder.set_route({0, 1, 2, 3});
  builder.set_route({0, 5, 4, 3});
  builder.set_route({1, 2});
  const RoutingTable table = std::move(builder).build();
  const SrgIndex index(table);
  const SrgOracle oracle(table);
  SrgScratch bitset(index);
  const std::vector<std::pair<std::vector<Node>, std::uint32_t>> cases = {
      {{}, 2}, {{5}, 2}, {{1}, 1}, {{4}, 2}, {{5, 2}, 0}, {{4, 5}, 2}};
  for (const auto& [faults, arcs] : cases) {
    const auto want = oracle.evaluate(faults);
    EXPECT_EQ(want.arcs, arcs);
    expect_same_result(want, bitset.evaluate(faults));
  }
}

// Packed blocks and evaluate() interleaved per set on one scratch while the
// strike epoch wraps: the bitset view is rebuilt for every struck set.
TEST(SrgKernels, SparseStrikePackedToggleAcrossEpochWrap) {
  const auto gg = hypercube(4);
  const RoutingTable table = build_full_multirouting(gg.graph, 3);
  const SrgIndex index(table);
  const auto sets = strike_sets(16, 4);
  std::vector<SrgScratch::Result> want;
  const SrgOracle oracle(table);
  for (const auto& set : sets) want.push_back(oracle.evaluate(set));
  for (const std::size_t run : {1u, 2u, 3u}) {
    SrgScratch scratch(index);
    // Wraps at the sixth evaluate(), within the first dozen sets.
    scratch.set_epochs_for_testing(~std::uint32_t{0} - 5);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      SCOPED_TRACE("run " + std::to_string(run) + " set " + std::to_string(i));
      expect_same_result(want[i],
                         evaluate_one(scratch, sets[i], (i / run) % 2 == 0));
    }
  }
}

// componentwise_diameter reads the same struck set as evaluate(): the
// bitset kernel agrees with the oracle on it after sparse strikes,
// interleaved with evaluate().
TEST(SrgKernels, SparseStrikeComponentwiseMatchesOracle) {
  const auto gg = hypercube(4);
  const RoutingTable table = build_full_multirouting(gg.graph, 3);
  const SrgIndex index(table);
  std::vector<std::uint32_t> comp(16);
  for (Node v = 0; v < 16; ++v) comp[v] = v % 3;
  const SrgOracle oracle(table);
  SrgScratch bitset(index);
  for (const auto& set : strike_sets(16, 5)) {
    expect_same_result(oracle.evaluate(set), bitset.evaluate(set));
    EXPECT_EQ(oracle.componentwise_diameter(set, comp),
              bitset.componentwise_diameter(set, comp));
  }
}

}  // namespace
}  // namespace ftr
