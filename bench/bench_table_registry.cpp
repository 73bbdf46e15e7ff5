// Warm-vs-cold table serving: what the registry's shared preprocessing is
// worth. Both cases serve the same round-robin request load over N tables —
// one acquire + one fault-set evaluation per request, the serving layer's
// lightest realistic unit of work. The warm registry holds every table
// resident (every acquire is a hit, so the SrgIndex built on first touch is
// reused for the rest of the run), while the cold registry runs under a
// byte budget that fits ONE table, so every acquire of the round-robin is a
// miss that re-copies graph + routing and rebuilds the SrgIndex from the
// provider. items_per_second is requests served; the per-case `builds`
// counter is the preprocessing-count probe diverging (warm: N for the whole
// run; cold: one per request), and warm/cold items_per_second is the
// speedup the registry buys on preprocessing-bound request mixes.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"
#include "serve/table_registry.hpp"

namespace {

using namespace ftr;

constexpr std::size_t kTables = 4;

// Precomputed to keep GCC 12's -Wrestrict string-concat false positive out
// of the build (same workaround PR 3 applied in the library).
const std::vector<std::string>& table_names() {
  static const std::vector<std::string> names = {"t0", "t1", "t2", "t3"};
  return names;
}

void define_bench_tables(TableRegistry& registry) {
  for (std::size_t i = 0; i < kTables; ++i) {
    const auto gg = torus_graph(8, 8);
    registry.define_prebuilt(table_names()[i], gg.graph,
                             build_kernel_routing(gg.graph, 3).table);
  }
}

// One registry acquire + one fault-set evaluation through the handle,
// reusing a scratch across requests the way the router's worker chunks do
// (re-created only when the handle's index changes — which in the cold
// case is every request, since every miss rebuilds the index). The
// previous round's handle is kept alive in `cached` so the index-identity
// compare never involves a freed pointer (heap reuse could otherwise make
// a dangling address spuriously equal a fresh one).
std::uint32_t serve_one(TableRegistry& registry, const std::string& name,
                        std::uint64_t round, TableHandle& cached,
                        std::optional<SrgScratch>& scratch) {
  const TableHandle handle = registry.acquire(name);
  if (cached == nullptr || cached->index.get() != handle->index.get()) {
    scratch.emplace(*handle->index);
  }
  cached = handle;
  const auto n = static_cast<Node>(cached->graph.num_nodes());
  const std::vector<Node> faults = {static_cast<Node>(round % n),
                                    static_cast<Node>((round * 7 + 1) % n)};
  return scratch->evaluate(faults).diameter;
}

void run_request_load(benchmark::State& state, TableRegistry& registry) {
  TableHandle cached;
  std::optional<SrgScratch> scratch;
  std::uint64_t round = 0;
  for (auto _ : state) {
    const auto& name = table_names()[round % kTables];
    benchmark::DoNotOptimize(
        serve_one(registry, name, round, cached, scratch));
    ++round;
  }
  const auto stats = registry.stats();
  state.counters["builds"] = static_cast<double>(stats.builds);
  state.counters["hits"] = static_cast<double>(stats.hits);
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_table_registry_warm(benchmark::State& state) {
  TableRegistry registry;  // unlimited budget: everything stays resident
  define_bench_tables(registry);
  run_request_load(state, registry);
}
BENCHMARK(BM_table_registry_warm)->UseRealTime();

void BM_table_registry_cold(benchmark::State& state) {
  TableRegistryOptions options;
  options.max_resident_bytes = 1;  // fits one table: round-robin always misses
  TableRegistry registry(options);
  define_bench_tables(registry);
  run_request_load(state, registry);
}
BENCHMARK(BM_table_registry_cold)->UseRealTime();

// The acquire path alone — the cost the eviction policy is actually
// trading. A warm hit is a hash probe + LRU splice; a cold miss re-copies
// the materials and rebuilds the SrgIndex. hit-vs-miss items_per_second is
// the raw price of losing residency, with no per-request evaluation
// blended in (the _warm/_cold pair above shows the end-to-end blend).
void BM_table_registry_acquire_hit(benchmark::State& state) {
  TableRegistry registry;
  define_bench_tables(registry);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.acquire(table_names()[round % kTables]));
    ++round;
  }
  state.counters["builds"] = static_cast<double>(registry.stats().builds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_table_registry_acquire_hit)->UseRealTime();

void BM_table_registry_acquire_miss(benchmark::State& state) {
  TableRegistryOptions options;
  options.max_resident_bytes = 1;
  TableRegistry registry(options);
  define_bench_tables(registry);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.acquire(table_names()[round % kTables]));
    ++round;
  }
  state.counters["builds"] = static_cast<double>(registry.stats().builds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_table_registry_acquire_miss)->UseRealTime();

// --- cold-acquire datapoints: what a binary snapshot is worth ---------------
// Same topology and planner materials two ways: rebuild via the planner on
// every miss (the file-spec cold path snapshots exist to replace), and load
// a binary snapshot zero-copy via mmap. Both run under a byte budget of 1
// so every acquire is a miss; the ratio planner_rebuild : snapshot_mmap is
// what a snapshot is worth.

struct SnapshotBenchFiles {
  std::string graph_path;
  std::string snap_path;
};

const SnapshotBenchFiles& snapshot_bench_files() {
  static const SnapshotBenchFiles files = [] {
    const auto dir = std::filesystem::temp_directory_path();
    SnapshotBenchFiles f;
    f.graph_path = (dir / "ftroute_bench_registry.ftg").string();
    f.snap_path = (dir / "ftroute_bench_registry.snap").string();
    const auto gg = torus_graph(8, 8);
    {
      std::ofstream os(f.graph_path);
      save_graph(gg.graph, os);
    }
    Rng rng(42);  // the TableSpec default seed: identical planner output
    auto planned = build_planned_routing(gg.graph, std::nullopt, rng);
    save_table_snapshot_file(make_table_snapshot(gg.graph,
                                                 std::move(planned.table),
                                                 planned.plan),
                             f.snap_path);
    return f;
  }();
  return files;
}

void run_cold_acquire(benchmark::State& state, const TableSpec& spec) {
  TableRegistryOptions options;
  options.max_resident_bytes = 1;
  TableRegistry registry(options);
  // Two names, same spec, alternating acquires: under a budget that fits
  // one table, each acquire evicts the other name (the entry being
  // acquired itself always survives), so EVERY acquire is a genuine miss.
  registry.define("a", spec);
  registry.define("b", spec);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.acquire(round % 2 == 0 ? "a" : "b"));
    ++round;
  }
  const auto stats = registry.stats();
  state.counters["builds"] = static_cast<double>(stats.builds);
  state.counters["snapshot_loads"] =
      static_cast<double>(stats.snapshot_loads);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_table_registry_cold_planner_rebuild(benchmark::State& state) {
  TableSpec spec;
  spec.graph_file = snapshot_bench_files().graph_path;
  run_cold_acquire(state, spec);
}
BENCHMARK(BM_table_registry_cold_planner_rebuild)->UseRealTime();

void BM_table_registry_cold_snapshot_mmap(benchmark::State& state) {
  TableSpec spec;
  spec.snapshot_file = snapshot_bench_files().snap_path;
  run_cold_acquire(state, spec);
}
BENCHMARK(BM_table_registry_cold_snapshot_mmap)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("table-registry", "warm vs cold multi-table serving",
                     "serving-layer infrastructure (no paper section)");
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
