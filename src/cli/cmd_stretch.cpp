#include <iostream>
#include <string>
#include <vector>

#include "analysis/stretch.hpp"
#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/table.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "stretch",
      .positional = "<graph> <table>",
      .summary =
          "compare every route against the shortest path: stretch,\n"
          "  shortest-route counts, worst detour",
      .flags = {},
      .min_positional = 2,
      .max_positional = 2,
      .notes =
          "<graph>/<table> accept text files or binary snapshots (sniffed\n"
          "by magic)\n",
  };
  return s;
}

}  // namespace

int cmd_stretch(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const SnapshotInputs in = load_table_inputs(
        table_spec_args(a.positional.at(0), a.positional.at(1)));
    const auto s = measure_stretch(in.graph, in.table);
    Table t({"metric", "value"});
    t.add_row({"routes", Table::cell(s.routes)});
    t.add_row({"avg stretch", Table::cell(s.avg_stretch, 3)});
    t.add_row({"max stretch", Table::cell(s.max_stretch, 3)});
    t.add_row({"shortest routes", Table::cell(s.shortest_routes)});
    t.add_row({"max route hops", Table::cell(s.max_route_hops)});
    t.add_row({"max detour (hops)", Table::cell(s.max_detour)});
    t.print(std::cout);
    return 0;
  });
}

}  // namespace ftr::cli
