// Experiment E24: SRG evaluation at memory speed. The two evaluation
// kernels (fault/srg_engine.hpp) on the exhaustive Gray certification
// workload — the scan behind check_tolerance and the CLI's
// `sweep --exhaustive`:
//   * bitset — word-packed frontier/visited bitmaps with a direction-
//     optimizing top-down/bottom-up switch (every single-set evaluation);
//   * packed — Gray-adjacent fault sets evaluated lane-parallel in
//     width-parameterized blocks (64/128/256/512 lanes = 1/2/4/8 words per
//     route/pair/node; route liveness and reachability as AND/OR/ANDNOT
//     over blocks held in vector registers, arc counts through a
//     bit-sliced per-lane counter, runtime AVX2/AVX-512 dispatch).
// The library picks packed for exhaustive scans and bitset elsewhere, at
// the widest lane width the CPU profits from; these benches drive one
// SrgScratch directly so every kernel and every width can be timed on the
// same Gray walk. The headline metrics live in BENCH_srg_kernels.json:
// bench_srg_kernels_exhaustive/kernel:2/lanes:64 (packed, one-word blocks)
// must show >= 3x the items_per_second of /kernel:1/lanes:0 (bitset) on
// the exhaustive f=2 kernel/torus scan, and the widest supported lane
// count must beat lanes:64. Both kernels produce bit-identical results at
// every width (tests/test_srg_kernels checks each against the one-shot
// surviving graph); only throughput may differ. Kernel ids stay 1 (bitset)
// and 2 (packed), so recorded rows keep their names.
// bench_srg_kernels_stream_torus12 times the single-set path on the e2e
// stream_sweep shape (planner torus(12,12), 4-6 faults per set).
// bench_srg_kernels_random_block times unrelated random sets
// through the any-set packed kernel (SrgScratch::evaluate_block) against
// the bitset path, on the planner torus(12,12) and torus(10,10) tables at
// f = 4, 5, 6 and every lane width: packed must reach >= 3x bitset at 512
// lanes on torus(12,12), and its partial-block rows set the smallest block
// the sweeps hand to the packed kernel (kMinAnySetBlock, srg_engine.hpp).
// bench_srg_kernels_certify times check_tolerance's adversarial path
// (sampled lane blocks, lockstep hill-climbs) per certify.
// Single-threaded and CPU-time based, so the ratios are meaningful on any
// core count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_features.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

// Benchmark argument "kernel": 1 = bitset, 2 = packed.
constexpr std::int64_t kBitset = 1;
constexpr std::int64_t kPacked = 2;

// "bitset" / "packed512"; lanes only matters for packed, where 0 (auto) is
// annotated with the width it resolved to on this host.
std::string kernel_lanes_label(std::int64_t kernel, unsigned lanes) {
  if (kernel == kBitset) return "bitset";
  return "packed" + std::to_string(resolve_lane_width(lanes));
}

struct ScanTally {
  std::uint64_t sets = 0;
  std::uint32_t worst = 0;
  std::uint64_t disconnected = 0;
};

// One single-threaded exhaustive Gray walk over the f-subsets: packed lane
// blocks at `lanes` (0 = auto), or one evaluate() per set on the bitset
// kernel.
ScanTally gray_scan(const SrgIndex& index, std::size_t f, std::int64_t kernel,
                    unsigned lanes) {
  SrgScratch scratch(index);
  ScanTally tally;
  const auto absorb = [&](std::uint32_t d) {
    ++tally.sets;
    if (d == kUnreachable) ++tally.disconnected;
    tally.worst = std::max(tally.worst, d);
  };
  GraySubsetEnumerator e(index.num_nodes(), f);
  const std::uint64_t total = e.count();
  if (kernel == kPacked) {
    scratch.set_lane_width(lanes);
    SrgScratch::Result res[512];
    for (std::uint64_t r = 0; r < total;) {
      const auto cnt = static_cast<std::size_t>(
          std::min<std::uint64_t>(scratch.lane_width(), total - r));
      scratch.evaluate_gray_block(e, cnt, res);
      for (std::size_t i = 0; i < cnt; ++i) absorb(res[i].diameter);
      r += cnt;
      if (r < total) e.advance();
    }
    return tally;
  }
  std::vector<Node> faults;
  for (std::uint64_t r = 0; r < total; ++r) {
    faults.assign(e.current().begin(), e.current().end());
    absorb(scratch.evaluate(faults).diameter);
    if (r + 1 < total) e.advance();
  }
  return tally;
}

// Wall-clock overview across kernels and fault budgets, plus the cross-
// kernel checksum that makes the speedups honest: every kernel must report
// the same worst diameter, histogram mass, and disconnect count.
void table_kernel_throughput() {
  std::cout << "-- Exhaustive Gray scan throughput by kernel --\n";
  const unsigned auto_width = resolve_lane_width(0);
  Table table({"graph", "f", "sets", "bitset sets/s", "packed64 sets/s",
               "packed" + std::to_string(auto_width) + " sets/s",
               "packed/bitset"});
  using clock = std::chrono::steady_clock;
  struct Entry {
    std::string graph;
    Graph g;
    RoutingTable rt;
  };
  std::vector<Entry> entries;
  {
    const auto gg = torus_graph(6, 6);
    entries.push_back({gg.name, gg.graph,
                       build_kernel_routing(gg.graph, 3).table});
  }
  {
    const auto gg = cube_connected_cycles(4);
    entries.push_back({gg.name, gg.graph,
                       build_kernel_routing(gg.graph, 2).table});
  }
  for (const auto& e : entries) {
    const SrgIndex index(e.rt);
    for (std::size_t f : {2u, 3u}) {
      const auto count = binomial(e.g.num_nodes(), f);
      // bitset, packed at 64 lanes, packed at the auto width.
      constexpr int kConfigs = 3;
      const std::int64_t kernels[kConfigs] = {kBitset, kPacked, kPacked};
      const unsigned widths[kConfigs] = {0, 64, 0};
      double rate[kConfigs] = {};
      ScanTally tally[kConfigs];
      for (int k = 0; k < kConfigs; ++k) {
        const auto t0 = clock::now();
        tally[k] = gray_scan(index, f, kernels[k], widths[k]);
        const auto t1 = clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        rate[k] = secs > 0 ? static_cast<double>(tally[k].sets) / secs : 0.0;
        FTR_ASSERT_MSG(tally[k].worst == tally[0].worst &&
                           tally[k].disconnected == tally[0].disconnected,
                       "kernels disagree on the exhaustive scan");
      }
      table.add_row({e.graph, Table::cell(f), Table::cell(count),
                     Table::cell(rate[0], 0), Table::cell(rate[1], 0),
                     Table::cell(rate[2], 0),
                     Table::cell(rate[2] / rate[0], 1)});
    }
  }
  table.print(std::cout);
  std::cout << "(same scans, same answers — the ratio column is pure"
            << " kernel speedup; timings here are one-shot, the registered"
            << " benchmarks below are the recorded numbers)\n\n";
}

// THE acceptance benchmark: exhaustive f=2 scan of the kernel/torus table,
// one registered case per kernel, plus one per packed lane width (lanes:0
// is the auto pick). items_per_second is fault-sets/sec;
// /kernel:2/lanes:64 vs /kernel:1/lanes:0 (bitset) is the >= 3x claim, and
// the wider-lane cases vs lanes:64 are the width-scaling record.
void bench_srg_kernels_exhaustive(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto count = binomial(gg.graph.num_nodes(), 2);
  const std::int64_t kernel = state.range(0);
  const auto lanes = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray_scan(index, 2, kernel, lanes));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(kernel_lanes_label(kernel, lanes));
}
BENCHMARK(bench_srg_kernels_exhaustive)
    ->ArgNames({"kernel", "lanes"})
    ->Args({1, 0})
    ->Args({2, 64})
    ->Args({2, 128})
    ->Args({2, 256})
    ->Args({2, 512})
    ->Args({2, 0});

// The f=3 budget (7140 sets): deeper Gray blocks amortize the packed
// kernel's per-block setup better, so this is its best case on 36 nodes.
void bench_srg_kernels_exhaustive_f3(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto count = binomial(gg.graph.num_nodes(), 3);
  const std::int64_t kernel = state.range(0);
  const auto lanes = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gray_scan(index, 3, kernel, lanes));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(kernel_lanes_label(kernel, lanes));
}
BENCHMARK(bench_srg_kernels_exhaustive_f3)
    ->ArgNames({"kernel", "lanes"})
    ->Args({1, 0})
    ->Args({2, 64})
    ->Args({2, 128})
    ->Args({2, 256})
    ->Args({2, 512})
    ->Args({2, 0});

// One evaluate() per set on the bitset kernel, over the sampled stream the
// CLI's default `sweep` runs (sweeps hand short chunks to it; long ones go
// through any-set packed blocks, timed by the random_block rows).
void bench_srg_kernels_stream(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  constexpr std::uint64_t kSets = 512;
  SrgScratch scratch(index);
  std::vector<Node> faults;
  for (auto _ : state) {
    SampledStreamSource source(gg.graph.num_nodes(), 3, kSets, 7);
    while (source.next(faults)) {
      benchmark::DoNotOptimize(scratch.evaluate(faults));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSets));
  state.SetLabel(kernel_lanes_label(state.range(0), 0));
}
BENCHMARK(bench_srg_kernels_stream)->ArgName("kernel")->Arg(kBitset);

// The e2e `stream_sweep` shape: a planner-built torus(12,12) (planner seed
// 42, as the CLI builds it) and random sets of 4, 5 and 6 faults,
// interleaved. The bitset path strikes sparsely (base rows minus the pairs
// killed through the faults' routes).
void bench_srg_kernels_stream_torus12(benchmark::State& state) {
  const auto gg = torus_graph(12, 12);
  Rng plan_rng(42);
  const auto planned = build_planned_routing(gg.graph, std::nullopt, plan_rng);
  const SrgIndex index(planned.table);
  Rng rng(11);
  std::vector<std::vector<Node>> sets;
  for (const std::size_t f : {4u, 5u, 6u}) {
    for (auto& set : random_fault_sets(gg.graph.num_nodes(), f, 64, rng)) {
      sets.push_back(std::move(set));
    }
  }
  std::shuffle(sets.begin(), sets.end(), rng);
  SrgScratch scratch(index);
  for (auto _ : state) {
    for (const auto& faults : sets) {
      benchmark::DoNotOptimize(scratch.evaluate(faults));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sets.size()));
  state.SetLabel(kernel_lanes_label(state.range(0), 0));
}
BENCHMARK(bench_srg_kernels_stream_torus12)
    ->ArgName("kernel")
    ->Arg(kBitset);

// Random fault sets for the any-set block rows: `f` faults each, from a
// fixed seed, on the planner-built torus(side, side) the e2e workloads use
// (planner seed 42).
struct RandomBlockInput {
  SrgIndex index;
  std::vector<std::vector<Node>> sets;
};

const RandomBlockInput& random_block_input(std::size_t side, std::size_t f) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<RandomBlockInput>>
      cache;
  auto& entry = cache[{side, f}];
  if (!entry) {
    const auto gg = torus_graph(side, side);
    Rng plan_rng(42);
    const auto planned =
        build_planned_routing(gg.graph, std::nullopt, plan_rng);
    Rng rng(1000 + f);
    entry = std::make_unique<RandomBlockInput>(RandomBlockInput{
        SrgIndex(planned.table),
        random_fault_sets(gg.graph.num_nodes(), f, 1024, rng)});
  }
  return *entry;
}

// Unrelated random sets, one block of `count` at a time: the any-set packed
// kernel pinned to `lanes`, or one evaluate() per set on the bitset kernel
// (kernel 1; lanes and count unused). items_per_second is fault sets/sec.
void bench_srg_kernels_random_block(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto f = static_cast<std::size_t>(state.range(1));
  const std::int64_t kernel = state.range(2);
  const auto lanes = static_cast<unsigned>(state.range(3));
  const auto& input = random_block_input(side, f);
  const std::span<const std::vector<Node>> sets(input.sets);
  SrgScratch scratch(input.index);
  std::size_t block = 1;
  if (kernel == kPacked) {
    scratch.set_lane_width(lanes);
    block = static_cast<std::size_t>(state.range(4));
    if (block == 0) block = scratch.lane_width();
  }
  SrgScratch::Result res[512];
  std::size_t at = 0;
  std::int64_t items = 0;
  for (auto _ : state) {
    if (at + block > sets.size()) at = 0;
    if (kernel == kPacked) {
      scratch.evaluate_block(sets.subspan(at, block), res);
      benchmark::DoNotOptimize(res);
    } else {
      benchmark::DoNotOptimize(scratch.evaluate(sets[at]));
    }
    at += block;
    items += static_cast<std::int64_t>(block);
  }
  state.SetItemsProcessed(items);
  state.SetLabel(kernel_lanes_label(kernel, lanes) + " torus" +
                 std::to_string(side) + " f=" + std::to_string(f) +
                 (kernel == kPacked ? " block=" + std::to_string(block) : ""));
}

void random_block_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"side", "f", "kernel", "lanes", "count"});
  for (const std::int64_t side : {12, 10}) {
    for (const std::int64_t f : {4, 5, 6}) {
      b->Args({side, f, kBitset, 0, 0});
      for (const std::int64_t lanes : {64, 128, 256, 512}) {
        b->Args({side, f, kPacked, lanes, 0});
      }
    }
  }
  // Partial blocks at f = 5 on torus(12,12): where packed stops paying.
  for (const std::int64_t lanes : {128, 256, 512}) {
    for (std::int64_t count = 32; count < lanes; count *= 2) {
      b->Args({12, 5, kPacked, lanes, count});
    }
  }
}
BENCHMARK(bench_srg_kernels_random_block)->Apply(random_block_args);

// Single-set evaluation latency (the serving layer's per-request shape):
// one bitset evaluate() against reused scratch.
void bench_srg_kernels_single_set(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(9);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scratch.evaluate(sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(kernel_lanes_label(state.range(0), 0));
}
BENCHMARK(bench_srg_kernels_single_set)->ArgName("kernel")->Arg(kBitset);

// check_tolerance's adversarial path, which runs when C(n, f) is past the
// exhaustive budget: 200 uniform samples in lane blocks plus six
// route-load-seeded hill-climbs stepping in lockstep through the same
// block policy (SrgScratch::evaluate_sets). One thread, planner-built
// tables (planner seed 42): torus(8,8) at f = 3 — the serving layer's
// certify shape — and hypercube(7) at f = 6. items_per_second counts the
// fault sets the report counts (speculative climb candidates excluded).
void bench_srg_kernels_certify(benchmark::State& state) {
  const bool cube = state.range(0) == 1;
  const auto gg = cube ? hypercube(7) : torus_graph(8, 8);
  const std::uint32_t f = cube ? 6 : 3;
  Rng plan_rng(42);
  const auto planned =
      build_planned_routing(gg.graph, gg.known_connectivity, plan_rng);
  const SrgIndex index(planned.table);
  ToleranceCheckOptions options;
  options.exec.threads = 1;
  options = with_route_load_seeds(nodes_by_route_load(planned.table), f,
                                  options);
  std::uint64_t seed = 0;
  std::int64_t items = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    const auto report = check_tolerance(
        index, f, planned.plan.guaranteed_diameter, rng(), options);
    benchmark::DoNotOptimize(report.worst_diameter);
    items += static_cast<std::int64_t>(report.fault_sets_checked);
  }
  state.SetItemsProcessed(items);
  state.SetLabel(gg.name + " f=" + std::to_string(f) + " packed" +
                 std::to_string(resolve_lane_width(0)));
}
BENCHMARK(bench_srg_kernels_certify)
    ->ArgName("table")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E24", "SRG evaluation kernels",
                     "bitset BFS + wide-lane packed Gray evaluation "
                     "(64-512 sets/block, runtime SIMD dispatch)");
  table_kernel_throughput();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
