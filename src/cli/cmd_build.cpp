#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "fault/tolerance_check.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "build",
      .positional = "",
      .summary =
          "build a routing for the graph on stdin and write the table to\n"
          "  stdout (plan details on stderr)",
      .flags =
          {
              {"--seed", "S", "planner RNG seed (default 42)"},
              {"--certify", nullptr,
               "also check the plan's claimed tolerance and exit nonzero\n"
               "        when the certificate fails"},
          },
      .exec_mask = kExecFlagThreads | kExecFlagKernel | kExecFlagLanes,
      .min_positional = 0,
      .max_positional = 0,
      .notes =
          "execution flags apply to the --certify check; the build itself\n"
          "is deterministic in --seed alone\n",
  };
  return s;
}

}  // namespace

int cmd_build(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const Graph g = load_graph(std::cin);
    Rng rng(a.u64("--seed", 42));
    if (a.has("--certify")) {
      ToleranceCheckOptions opts;
      opts.exec = a.exec;
      const auto certified =
          build_certified_routing(g, std::nullopt, rng, opts);
      const auto& planned = certified.routing;
      std::cerr << "built " << construction_name(planned.plan.construction)
                << " routing: (d <= " << planned.plan.guaranteed_diameter
                << ", f <= " << planned.plan.tolerated_faults << "), "
                << planned.table.num_routes() << " directed routes\n"
                << "certificate: " << certified.certificate.summary() << '\n';
      save_routing_table(planned.table, std::cout);
      return certified.certificate.holds ? 0 : 1;
    }
    const auto planned = build_planned_routing(g, std::nullopt, rng);
    std::cerr << "built " << construction_name(planned.plan.construction)
              << " routing: (d <= " << planned.plan.guaranteed_diameter
              << ", f <= " << planned.plan.tolerated_faults << "), "
              << planned.table.num_routes() << " directed routes\n";
    save_routing_table(planned.table, std::cout);
    return 0;
  });
}

}  // namespace ftr::cli
