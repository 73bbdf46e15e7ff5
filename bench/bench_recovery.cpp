// Experiment E19: beyond the fault budget (Section 7, open problem 3).
// What happens to each construction when |F| exceeds t? The paper leaves
// this open; we measure it:
//   * componentwise surviving diameter (the open problem's "well behaved in
//     the connected components" notion) for f = 0 .. 2t+1;
//   * offline recovery: re-planning a routing on the survivors' network and
//     the guarantee the degraded network still supports.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

void table_overload() {
  std::cout << "-- Componentwise surviving diameter past the budget --\n";
  Table table({"graph", "construction", "t", "f", "trials",
               "P(split network)", "P(routing cut in comp)",
               "worst finite cw-diam"});
  Rng rng(515);
  struct Entry {
    std::string graph;
    std::string name;
    std::uint32_t t;
    Graph g;
    RoutingTable rt;
  };
  std::vector<Entry> entries;
  {
    const auto gg = torus_graph(5, 5);
    entries.push_back({gg.name, "kernel", 3, gg.graph,
                       build_kernel_routing(gg.graph, 3).table});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
    entries.push_back({gg.name, "circular", 3, gg.graph,
                       build_circular_routing(gg.graph, 3, m).table});
  }
  {
    const auto gg = cube_connected_cycles(4);
    entries.push_back({gg.name, "kernel", 2, gg.graph,
                       build_kernel_routing(gg.graph, 2).table});
  }
  for (const auto& e : entries) {
    // One engine per table, reused across every fault set of the sweep.
    SurvivingRouteGraphEngine engine(e.rt);
    for (std::uint32_t f = e.t; f <= 2 * e.t + 1; ++f) {
      const std::size_t trials = 60;
      std::size_t split = 0, cut = 0;
      std::uint32_t worst_finite = 0;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        const auto sample = rng.sample(e.g.num_nodes(), f);
        const std::vector<Node> faults(sample.begin(), sample.end());
        const auto cw = componentwise_surviving_diameter(e.g, engine, faults);
        if (cw.num_components > 1) ++split;
        if (cw.worst == kUnreachable) {
          ++cut;
        } else {
          worst_finite = std::max(worst_finite, cw.worst);
        }
      }
      table.add_row({e.graph, e.name, Table::cell(e.t), Table::cell(f),
                     Table::cell(trials),
                     Table::cell(static_cast<double>(split) / trials, 2),
                     Table::cell(static_cast<double>(cut) / trials, 2),
                     Table::cell(worst_finite)});
    }
  }
  table.print(std::cout);
  std::cout << "(f <= t rows must show P(cut) = 0 — the theorems; beyond t"
            << " the kernel's concentrator is the weak point, which is the"
            << " open problem's subject)\n\n";
}

void table_recovery() {
  std::cout << "-- Offline recovery: re-planning on the survivors --\n";
  Table table({"graph", "faults", "survivors connected", "degraded kappa",
               "new construction", "new (d, f)"});
  Rng rng(717);
  const GeneratedGraph gs[] = {torus_graph(5, 5), cube_connected_cycles(4),
                               cycle_graph(30)};
  for (const auto& gg : gs) {
    const std::uint32_t t = *gg.known_connectivity - 1;
    for (std::uint32_t f : {t, 2 * t + 1}) {
      const auto sample = rng.sample(gg.graph.num_nodes(), f);
      const std::vector<Node> faults(sample.begin(), sample.end());
      const auto outcome = rebuild_after_faults(gg.graph, faults, rng);
      std::string cons = "-";
      std::string guarantee = "-";
      if (outcome.survivors_connected && outcome.degraded_connectivity > 0) {
        cons = construction_name(outcome.plan.construction);
        guarantee = "(" + std::to_string(outcome.plan.guaranteed_diameter) +
                    ", " + std::to_string(outcome.plan.tolerated_faults) + ")";
      }
      table.add_row({gg.name, Table::cell(f),
                     Table::cell(outcome.survivors_connected),
                     Table::cell(outcome.degraded_connectivity), cons,
                     guarantee});
    }
  }
  table.print(std::cout);
  std::cout << "\n";
}

// Batched vs. per-fault-set surviving-diameter throughput: the seed path
// rebuilds the surviving Digraph (and all its per-node vectors) for every
// fault set; the engine preprocesses the table once and replays fault sets
// against reused scratch; the parallel column fans the same batch across
// 4 worker scratches over one shared index. The printed table gives the
// wall-clock summary; the registered benchmarks below record
// fault-sets/sec in the JSON baselines (items_per_second).
void table_batched_throughput() {
  std::cout << "-- Batched vs per-fault-set surviving diameter --\n";
  Table table({"graph", "construction", "f", "fault sets", "per-set ms",
               "batched ms", "4-thread ms", "speedup", "par speedup"});
  Rng rng(929);
  struct Entry {
    std::string graph;
    std::string name;
    std::uint32_t t;
    Graph g;
    RoutingTable rt;
  };
  std::vector<Entry> entries;
  {
    const auto gg = torus_graph(6, 6);
    entries.push_back({gg.name, "kernel", 3, gg.graph,
                       build_kernel_routing(gg.graph, 3).table});
  }
  {
    const auto gg = cube_connected_cycles(4);
    entries.push_back({gg.name, "kernel", 2, gg.graph,
                       build_kernel_routing(gg.graph, 2).table});
  }
  using clock = std::chrono::steady_clock;
  for (const auto& e : entries) {
    const std::size_t count = 400;
    const auto sets = random_fault_sets(e.g.num_nodes(), e.t, count, rng);

    std::uint64_t checksum_seed = 0;
    const auto t0 = clock::now();
    for (const auto& faults : sets) {
      checksum_seed += surviving_diameter(e.rt, faults);
    }
    const auto t1 = clock::now();

    SurvivingRouteGraphEngine engine(e.rt);
    std::uint64_t checksum_batched = 0;
    const auto t2 = clock::now();
    for (const auto& faults : sets) {
      checksum_batched += engine.surviving_diameter(faults);
    }
    const auto t3 = clock::now();
    FTR_ASSERT_MSG(checksum_seed == checksum_batched,
                   "engine and one-shot paths disagree");

    FaultSweepOptions opts;
    opts.exec.threads = 4;
    const auto t4 = clock::now();
    const auto summary = sweep_fault_sets(e.rt, *engine.index(), sets, opts);
    const auto t5 = clock::now();
    std::uint64_t checksum_parallel = 0;
    for (const auto& rec : summary.per_set) checksum_parallel += rec.diameter;
    FTR_ASSERT_MSG(checksum_seed == checksum_parallel,
                   "parallel sweep and one-shot paths disagree");

    const double seed_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double batched_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    const double parallel_ms =
        std::chrono::duration<double, std::milli>(t5 - t4).count();
    table.add_row({e.graph, e.name, Table::cell(e.t), Table::cell(count),
                   Table::cell(seed_ms, 1), Table::cell(batched_ms, 1),
                   Table::cell(parallel_ms, 1),
                   Table::cell(seed_ms / batched_ms, 1),
                   Table::cell(batched_ms / parallel_ms, 1)});
  }
  table.print(std::cout);
  std::cout << "(same diameters, same fault sets; the batched column reuses"
            << " one SurvivingRouteGraphEngine, the 4-thread column fans the"
            << " shared index across worker scratches)\n\n";
}

void bench_surviving_diameter_per_fault_set(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(9);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        surviving_diameter(kr.table, sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("fault-sets");
}
BENCHMARK(bench_surviving_diameter_per_fault_set);

void bench_surviving_diameter_batched(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(9);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.surviving_diameter(sets[i++ % sets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("fault-sets");
}
BENCHMARK(bench_surviving_diameter_batched);

// Thread-scaling sweep throughput on the kernel/torus workload: one shared
// SrgIndex, state.range(0) worker scratches. items_per_second is
// fault-sets/sec; /threads:1 vs /threads:4 in BENCH_recovery.json is the
// serial-vs-parallel acceptance metric.
void bench_surviving_diameter_sweep(benchmark::State& state) {
  const auto gg = torus_graph(6, 6);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(9);
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
// UseRealTime: items_per_second must count wall clock, not main-thread CPU
// time, or multi-worker cases would fabricate speedup on small hosts.
BENCHMARK(bench_surviving_diameter_sweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// Recovery-metric sweep, serial vs fanned-out (the componentwise metric is
// the heavy per-set evaluation, so it parallelizes best).
void bench_componentwise_sweep(benchmark::State& state) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(5);
  const auto sets = random_fault_sets(25, 5, 128, rng);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        componentwise_sweep(gg.graph, index, sets, ExecPolicy{.threads = threads}));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sets.size()));
  state.SetLabel("fault-sets");
}
BENCHMARK(bench_componentwise_sweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

void bench_componentwise_diameter(benchmark::State& state) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(5);
  const auto sets = random_fault_sets(25, 5, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(componentwise_surviving_diameter(
        gg.graph, kr.table, sets[i++ % sets.size()]));
  }
}
BENCHMARK(bench_componentwise_diameter);

void bench_rebuild_after_faults(benchmark::State& state) {
  const auto gg = torus_graph(5, 5);
  Rng rng(6);
  const auto sets = random_fault_sets(25, 3, 16, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    Rng prng(7);
    benchmark::DoNotOptimize(
        rebuild_after_faults(gg.graph, sets[i++ % sets.size()], prng));
  }
}
BENCHMARK(bench_rebuild_after_faults);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E19", "beyond the fault budget & recovery",
                     "Section 7, open problem 3");
  table_overload();
  table_recovery();
  table_batched_throughput();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
