#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "snapshot",
      .positional = "",
      .summary =
          "write the versioned, checksummed binary table snapshot (graph +\n"
          "  routes + plan; the SRG index and ranking are derived on load)",
      .flags =
          {
              {"--graph", "FILE", "graph file (text or snapshot; required)"},
              {"--routes", "FILE", "routing table to snapshot (text or snapshot)"},
              {"--seed", "S",
               "build the routing with this planner seed instead of\n"
               "        --routes (default 42)"},
              {"--out", "FILE", "output snapshot path (required)"},
          },
      .min_positional = 0,
      .max_positional = 0,
      .notes =
          "the <graph>/<table> args of check/sweep/stretch accept the\n"
          "written snapshot too (sniffed by magic, no flag needed)\n",
  };
  return s;
}

}  // namespace

int cmd_snapshot(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const std::string graph_path = a.str("--graph", "");
    const std::string out_path = a.str("--out", "");
    const std::string routes_path = a.str("--routes", "");
    if (graph_path.empty() || out_path.empty()) {
      throw UsageError("snapshot needs --graph FILE and --out FILE");
    }
    if (!routes_path.empty() && a.has("--seed")) {
      throw UsageError("--routes and --seed are mutually exclusive");
    }
    TableSpec table;
    if (!routes_path.empty()) {
      table = table_spec_args(graph_path, routes_path);
    } else {
      table.graph_file = graph_path;
      table.build_seed = a.u64("--seed", 42);
    }
    const TableSnapshot snap = make_table_snapshot(load_table_inputs(table));
    save_table_snapshot_file(snap, out_path);
    const auto info = read_snapshot_directory(out_path);
    std::cerr << "snapshot " << out_path << ": " << snap.table.num_nodes()
              << " nodes, " << snap.table.num_routes() << " directed routes, "
              << snap.index->num_pairs() << " pairs, " << info.sections.size()
              << " sections, " << info.file_size << " bytes\n";
    return 0;
  });
}

}  // namespace ftr::cli
