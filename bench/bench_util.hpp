// Shared helpers for the experiment benches. Every bench binary follows the
// same shape:
//   1. print the experiment tables (paper-claimed bound vs measured worst
//      surviving diameter, per graph/fault budget) — the reproduction of the
//      paper's "results";
//   2. run google-benchmark timings for the constructions involved.
// EXPERIMENTS.md records the tables these binaries print.
#pragma once

#include <cstdint>
#include <string>

#include "common/table.hpp"
#include "fault/tolerance_check.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr::bench {

/// Prints the experiment banner (id, title, paper reference).
void banner(const std::string& experiment_id, const std::string& title,
            const std::string& paper_ref);

/// "disconnected" for kUnreachable, the number otherwise.
std::string fmt_diameter(std::uint32_t d);

/// "exhaustive(123)" or "adversarial(456)".
std::string fmt_method(const ToleranceReport& r);

/// Standard verification options used across benches: exhaustive up to the
/// budget, then sampling + hill-climbing.
ToleranceCheckOptions standard_options();

/// Runs the tolerance check for a routing or multirouting and appends a
/// table row: {graph, construction, t, f, claimed, measured, method,
/// verdict}.
void add_tolerance_row(Table& table, const std::string& graph_name,
                       const std::string& construction, std::uint32_t t,
                       std::uint32_t f, std::uint32_t claimed,
                       const RoutingTable& routing, std::uint64_t seed);

/// The canonical tolerance table header used by most benches.
Table tolerance_table();

/// Initializes and runs google-benchmark (call after printing tables).
int run_registered_benchmarks(int argc, char** argv);

}  // namespace ftr::bench
