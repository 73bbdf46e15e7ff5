#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/properties.hpp"
#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/planner.hpp"
#include "graph/bfs.hpp"
#include "graph/graph_io.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "profile",
      .positional = "",
      .summary =
          "profile a graph read from stdin (degrees, connectivity, girth,\n"
          "  diameter, neighborhood sets) and show the planned construction",
      .flags = {},
      .min_positional = 0,
      .max_positional = 0,
  };
  return s;
}

}  // namespace

int cmd_profile(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs&) {
    const Graph g = load_graph(std::cin);
    Rng rng(1);
    const auto profile = profile_graph(g, std::nullopt, rng);
    Table t({"metric", "value"});
    t.add_row({"nodes", Table::cell(profile.n)});
    t.add_row({"edges", Table::cell(profile.m)});
    t.add_row({"min/max degree", Table::cell(profile.min_degree) + "/" +
                                     Table::cell(profile.max_degree)});
    t.add_row({"connectivity (t+1)", Table::cell(profile.connectivity)});
    t.add_row({"girth", profile.girth == kUnreachable
                            ? "none"
                            : Table::cell(profile.girth)});
    t.add_row({"diameter", Table::cell(profile.diameter)});
    t.add_row(
        {"neighborhood set K", Table::cell(profile.neighborhood_set_size)});
    t.add_row({"two-trees", Table::cell(profile.two_trees.has_value())});
    t.print(std::cout);
    if (profile.kernel_applicable) {
      const auto plan = plan_routing(profile);
      std::cout << "\nplan: " << construction_name(plan.construction)
                << " -> (d <= " << plan.guaranteed_diameter
                << ", f <= " << plan.tolerated_faults << ")\n  "
                << plan.rationale << '\n';
    } else {
      std::cout << "\nplan: none (graph complete, trivial, or disconnected)\n";
    }
    return 0;
  });
}

}  // namespace ftr::cli
