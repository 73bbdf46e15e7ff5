// Experiments E11–E13: the Section 6 multirouting schemes.
//   (1) full multirouting, t+1 routes/pair     -> surviving diameter 1;
//   (2) kernel + concentrator multiroutes      -> diameter <= 3;
//   (3) MULT construction, <= 2 routes/pair    -> measured (bipolar-like).
// The cost table shows the route-count price of each diameter level — the
// section's trade-off in one view.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "core/ftroute.hpp"

namespace {

using namespace ftr;

std::vector<GeneratedGraph> graphs() {
  std::vector<GeneratedGraph> out;
  out.push_back(cycle_graph(12));
  out.push_back(petersen_graph());
  out.push_back(cube_connected_cycles(3));
  out.push_back(torus_graph(4, 4));
  return out;
}

void table_schemes() {
  std::cout << "-- Surviving diameter of the three multirouting schemes --\n";
  auto table = bench::tolerance_table();
  for (const auto& gg : graphs()) {
    const std::uint32_t t = *gg.known_connectivity - 1;
    const auto full = build_full_multirouting(gg.graph, t);
    const auto kern = build_kernel_multirouting(gg.graph, t);
    const auto mult = build_mult_routing(gg.graph, t);
    bench::add_tolerance_row(table, gg.name, "full multi (t+1)", t, t, 1,
                             full, 911);
    bench::add_tolerance_row(table, gg.name, "kernel multi", t, t, 3,
                             kern.table, 912);
    bench::add_tolerance_row(table, gg.name, "MULT (cap 2)", t, t, 4,
                             mult.table, 913);
  }
  table.print(std::cout);
  std::cout << "(MULT's bound is measured, not claimed: the paper only"
            << " sketches the construction as 'similar to the bipolar"
            << " routing')\n\n";
}

void table_costs() {
  std::cout << "-- Route-count price of each scheme --\n";
  Table table({"graph", "n", "t", "single kernel", "MULT (cap2)",
               "kernel multi", "full multi"});
  for (const auto& gg : graphs()) {
    const std::uint32_t t = *gg.known_connectivity - 1;
    const auto kernel = build_kernel_routing(gg.graph, t);
    const auto full = build_full_multirouting(gg.graph, t);
    const auto kern = build_kernel_multirouting(gg.graph, t);
    const auto mult = build_mult_routing(gg.graph, t);
    table.add_row({gg.name, Table::cell(gg.graph.num_nodes()), Table::cell(t),
                   Table::cell(kernel.table.num_routes()),
                   Table::cell(mult.table.num_routes()),
                   Table::cell(kern.table.num_routes()),
                   Table::cell(full.num_routes())});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void bench_build_full_multirouting(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  for (auto _ : state) {
    auto t = build_full_multirouting(gg.graph, 3);
    benchmark::DoNotOptimize(t.num_routes());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_build_full_multirouting)->Arg(4)->Arg(5)->Arg(6);

void bench_build_mult_routing(benchmark::State& state) {
  const auto gg = torus_graph(state.range(0), state.range(0));
  for (auto _ : state) {
    auto t = build_mult_routing(gg.graph, 3);
    benchmark::DoNotOptimize(t.table.num_routes());
  }
  state.SetLabel(gg.name);
}
BENCHMARK(bench_build_mult_routing)->Arg(4)->Arg(6)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E11/E12/E13", "multiroutings",
                     "Section 6, Variations of the model: schemes (1)-(3)");
  table_schemes();
  table_costs();
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
