#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"

namespace ftr::bench {

void banner(const std::string& experiment_id, const std::string& title,
            const std::string& paper_ref) {
  std::cout << "\n=== " << experiment_id << ": " << title << " ===\n"
            << "paper: " << paper_ref << "\n\n";
}

std::string fmt_diameter(std::uint32_t d) {
  return d == kUnreachable ? "disconnected" : std::to_string(d);
}

std::string fmt_method(const ToleranceReport& r) {
  std::ostringstream os;
  os << (r.exhaustive ? "exhaustive(" : "adversarial(") << r.fault_sets_checked
     << ")";
  return os.str();
}

ToleranceCheckOptions standard_options() {
  ToleranceCheckOptions opts;
  opts.exhaustive_budget = 8000;
  opts.samples = 150;
  opts.hillclimb_restarts = 4;
  opts.hillclimb_steps = 16;
  return opts;
}

Table tolerance_table() {
  return Table({"graph", "construction", "t", "f", "claimed d", "measured d",
                "method", "verdict"});
}

void add_tolerance_row(Table& table, const std::string& graph_name,
                       const std::string& construction, std::uint32_t t,
                       std::uint32_t f, std::uint32_t claimed,
                       const RoutingTable& routing, std::uint64_t seed) {
  Rng rng(seed);
  const auto report =
      check_tolerance(routing, f, claimed, rng, standard_options());
  table.add_row({graph_name, construction, Table::cell(t), Table::cell(f),
                 Table::cell(claimed), fmt_diameter(report.worst_diameter),
                 fmt_method(report), report.holds ? "HOLDS" : "VIOLATED"});
}

int run_registered_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Execution context for the JSON baselines: how many cores the host has
  // and the packed lane width the code resolves on it. Per-case sweep
  // worker counts are hard-coded benchmark Args and appear in the
  // /threads:N case names themselves.
  benchmark::AddCustomContext("host_cores",
                              std::to_string(hardware_threads()));
  benchmark::AddCustomContext("lane_width",
                              std::to_string(resolve_lane_width(0)));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ftr::bench
