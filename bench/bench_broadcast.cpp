// Experiment E16: the route-counter broadcast protocol (Section 1). The
// number of rounds to rebuild routing tables after faults is bounded by the
// surviving diameter — we simulate the protocol on every construction and
// report worst-case rounds vs the theorem bound, plus the message cost.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

struct Entry {
  std::string graph;
  std::string construction;
  std::uint32_t claimed;
  std::uint32_t t;  // fault budget the construction tolerates
  RoutingTable table;
};

std::vector<Entry> entries() {
  std::vector<Entry> out;
  Rng rng(71);
  {
    const auto gg = cube_connected_cycles(3);
    out.push_back({gg.name, "kernel", 4, 2,
                   build_kernel_routing(gg.graph, 2).table});
    const auto m = neighborhood_set_of_size(gg.graph, 3, rng, 16);
    out.push_back({gg.name, "circular", 6, 2,
                   build_circular_routing(gg.graph, 2, m).table});
  }
  {
    const auto gg = dodecahedron();
    const auto w = find_two_trees(gg.graph);
    out.push_back({gg.name, "bipolar-uni", 4, 2,
                   build_bipolar_unidirectional(gg.graph, 2, *w).table});
  }
  {
    const auto gg = cycle_graph(48);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 16);
    out.push_back({gg.name, "tri-circular", 4, 1,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table});
  }
  return out;
}

void table_broadcast() {
  std::cout << "-- Broadcast rounds <= surviving diameter <= claimed bound"
            << " --\n";
  Table table({"graph", "construction", "faults", "surv. diam",
               "worst rounds", "avg msgs/bcast", "claimed", "verdict"});
  Rng rng(72);
  for (const auto& e : entries()) {
    const std::size_t n = e.table.num_nodes();
    // Worst over several random fault sets and all sources.
    std::uint32_t worst_rounds = 0;
    std::uint32_t worst_diam = 0;
    std::uint64_t total_msgs = 0;
    std::size_t bcasts = 0;
    bool all_complete = true;
    const std::size_t f = e.t;  // never exceed the tolerated budget
    for (int trial = 0; trial < 12; ++trial) {
      const auto sample = rng.sample(n, f);
      const std::vector<Node> faults(sample.begin(), sample.end());
      const auto r = surviving_graph(e.table, faults);
      const auto d = diameter(r);
      if (d == kUnreachable) {
        all_complete = false;
        continue;
      }
      worst_diam = std::max(worst_diam, d);
      for (Node src : r.present_nodes()) {
        const auto b = simulate_broadcast(r, src, e.claimed);
        all_complete &= b.complete;
        worst_rounds = std::max(worst_rounds, b.rounds);
        total_msgs += b.messages_sent;
        ++bcasts;
      }
    }
    const bool verdict = all_complete && worst_rounds <= e.claimed &&
                         worst_rounds <= worst_diam;
    table.add_row({e.graph, e.construction, Table::cell(f),
                   Table::cell(worst_diam), Table::cell(worst_rounds),
                   Table::cell(static_cast<double>(total_msgs) /
                                   static_cast<double>(bcasts),
                               1),
                   Table::cell(e.claimed), verdict ? "HOLDS" : "VIOLATED"});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void table_delivery_cost() {
  std::cout << "-- End-to-end delivery cost (route traversals dominate"
            << " transmission time, Section 1's model) --\n";
  Table table({"graph", "construction", "faults", "avg route hops",
               "max route hops", "avg edge hops"});
  Rng rng(73);
  for (const auto& e : entries()) {
    const auto sample = rng.sample(e.table.num_nodes(), e.t);
    const std::vector<Node> faults(sample.begin(), sample.end());
    const SrgIndex index(e.table);
    SrgScratch scratch(index);
    scratch.evaluate(faults);
    auto srng = rng.split();
    const auto stats = measure_delivery(scratch, 400, srng);
    table.add_row({e.graph, e.construction, Table::cell(e.t),
                   Table::cell(stats.avg_route_hops, 2),
                   Table::cell(stats.max_route_hops),
                   Table::cell(stats.avg_edge_hops, 2)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void bench_broadcast_simulation(benchmark::State& state) {
  const auto gg = cube_connected_cycles(4);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto r = surviving_graph(kr.table, {1, 17});
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_broadcast(r, 0, 4));
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_broadcast_simulation);

void bench_surviving_graph_construction(benchmark::State& state) {
  const auto gg = cube_connected_cycles(4);
  const auto kr = build_kernel_routing(gg.graph, 2);
  Rng rng(5);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 2, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        surviving_graph(kr.table, sets[i++ % sets.size()]).num_arcs());
  }
}
BENCHMARK(bench_surviving_graph_construction);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E16", "route-counter broadcast",
                     "Section 1: rounds bounded by the surviving diameter");
  table_broadcast();
  table_delivery_cost();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
