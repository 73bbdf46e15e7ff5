// Experiment E17: the headline comparison. Every construction on every
// family it applies to, at the full fault budget — guaranteed vs measured.
// This is the paper's whole story in one table: the kernel's bound grows
// with 2t, everything in Sections 4–6 stays constant.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

void table_headline() {
  std::cout << "-- All constructions x families, f = t --\n";
  auto table = bench::tolerance_table();
  Rng rng(12345);

  struct Case {
    GeneratedGraph gg;
    std::uint32_t t;
  };
  std::vector<Case> cases;
  cases.push_back({cycle_graph(48), 1});
  cases.push_back({cube_connected_cycles(3), 2});
  cases.push_back({dodecahedron(), 2});
  cases.push_back({torus_graph(7, 7), 3});
  cases.push_back({hypercube(4), 3});

  for (const auto& [gg, t] : cases) {
    // Kernel always applies (Theorem 3 / 4).
    const auto kr = build_kernel_routing(gg.graph, t);
    bench::add_tolerance_row(table, gg.name, "kernel", t, t,
                             std::max(2 * t, 4u), kr.table, 1401);

    // Circular family if a big enough neighborhood set exists.
    const auto m = randomized_neighborhood_set(gg.graph, rng, 16);
    if (m.size() >= circular_required_k(t)) {
      const auto cr = build_circular_routing(gg.graph, t, m);
      bench::add_tolerance_row(table, gg.name, "circular", t, t, 6, cr.table,
                               1402);
    }
    if (m.size() >= tricircular_compact_required_k(t)) {
      const auto tc = build_tricircular_routing(gg.graph, t, m,
                                                TriCircularVariant::kCompact);
      bench::add_tolerance_row(table, gg.name, "tri-circ compact", t, t, 5,
                               tc.table, 1403);
    }
    if (m.size() >= tricircular_required_k(t)) {
      const auto tf = build_tricircular_routing(gg.graph, t, m,
                                                TriCircularVariant::kFull);
      bench::add_tolerance_row(table, gg.name, "tri-circ full", t, t, 4,
                               tf.table, 1404);
    }

    // Bipolar if the two-trees property holds.
    if (const auto w = find_two_trees(gg.graph)) {
      const auto uni = build_bipolar_unidirectional(gg.graph, t, *w);
      const auto bi = build_bipolar_bidirectional(gg.graph, t, *w);
      bench::add_tolerance_row(table, gg.name, "bipolar-uni", t, t, 4,
                               uni.table, 1405);
      bench::add_tolerance_row(table, gg.name, "bipolar-bi", t, t, 5,
                               bi.table, 1406);
    }

    // Section 6: clique augmentation always applies.
    const auto ar = build_augmented_kernel(gg.graph, t);
    bench::add_tolerance_row(table, gg.name, "kernel+clique", t, t, 3,
                             ar.table, 1407);
  }
  table.print(std::cout);
  std::cout << "\n";
}

void table_planner() {
  std::cout << "-- RoutingPlanner choices --\n";
  Table table({"graph", "chosen construction", "guaranteed d", "f",
               "rationale"});
  Rng rng(54321);
  const GeneratedGraph gs[] = {cycle_graph(48),  cube_connected_cycles(3),
                               dodecahedron(),   torus_graph(7, 7),
                               hypercube(4),     desargues_graph(),
                               wrapped_butterfly(3)};
  for (const auto& gg : gs) {
    const auto profile = profile_graph(gg.graph, gg.known_connectivity, rng,
                                       /*compute_diameter=*/false);
    const auto plan = plan_routing(profile);
    table.add_row({gg.name, construction_name(plan.construction),
                   Table::cell(plan.guaranteed_diameter),
                   Table::cell(plan.tolerated_faults), plan.rationale});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void bench_planner_end_to_end(benchmark::State& state) {
  const auto gg = cube_connected_cycles(4);
  Rng rng(77);
  for (auto _ : state) {
    auto planned = build_planned_routing(gg.graph, gg.known_connectivity, rng);
    benchmark::DoNotOptimize(planned.table.num_routes());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_planner_end_to_end);

// The headline-table workload in miniature: sweep many fault sets against
// one construction. Seed path vs one reused SrgScratch — items_per_second is
// fault-sets/sec in the JSON baselines.
void bench_fault_sweep_per_fault_set(benchmark::State& state) {
  const auto gg = torus_graph(7, 7);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(4);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        surviving_diameter(kr.table, sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("fault-sets");
}
BENCHMARK(bench_fault_sweep_per_fault_set);

void bench_fault_sweep_batched(benchmark::State& state) {
  const auto gg = torus_graph(7, 7);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  Rng rng(4);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scratch.surviving_diameter(sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("fault-sets");
}
BENCHMARK(bench_fault_sweep_batched);

// The same sweep fanned across worker threads over one shared SrgIndex:
// /threads:N names in BENCH_comparison.json record the scaling curve.
void bench_fault_sweep_engine_threads(benchmark::State& state) {
  const auto gg = torus_graph(7, 7);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(4);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 256, rng);
  FaultSweepOptions opts;
  opts.exec.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_fault_sets(kr.table, index, sets, opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sets.size()));
  state.SetLabel("fault-sets");
}
// UseRealTime: wall clock, not main-thread CPU time — see bench_recovery.
BENCHMARK(bench_fault_sweep_engine_threads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// Parallel certification: the planner's check_tolerance at the plan's
// (d, f), fanned across 4 workers.
void bench_certified_check_parallel(benchmark::State& state) {
  const auto gg = torus_graph(7, 7);
  const auto kr = build_kernel_routing(gg.graph, 3);
  ToleranceCheckOptions opts = bench::standard_options();
  opts.exec.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Rng rng(1401);
    benchmark::DoNotOptimize(check_tolerance(kr.table, 3, 6, rng, opts));
  }
  state.SetLabel("checks");
}
BENCHMARK(bench_certified_check_parallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E17", "headline comparison",
                     "all constructions (Sections 3-6) x families, f = t");
  table_headline();
  table_planner();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
