#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "fault/tolerance_check.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "check",
      .positional = "<graph> <table>",
      .summary =
          "check a claimed fault tolerance: exit 0 when the claimed\n"
          "  diameter bound holds under every probed fault set, 1 otherwise",
      .flags =
          {
              {"--faults", "F", "fault budget to probe (default 1)"},
              {"--claimed", "D", "claimed surviving diameter bound (default 6)"},
              {"--seed", "S", "search RNG seed (default 7)"},
              {"--workers", "W",
               "fork W snapshot-fed worker processes (each running\n"
               "        --threads threads); 0 = in-process (default)"},
              {"--worker-batch", "R",
               "task items per distributed unit (0 = auto)"},
              {"--worker-timeout", "S",
               "per-unit seconds before a hung worker is killed\n"
               "        (default 300, 0 = off)"},
          },
      .exec_mask = kExecFlagThreads | kExecFlagKernel | kExecFlagLanes,
      .min_positional = 2,
      .max_positional = 2,
      .notes =
          "<graph>/<table> accept text files or binary snapshots (sniffed\n"
          "by magic); stdout is bit-identical for any worker count\n",
  };
  return s;
}

}  // namespace

int cmd_check(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    auto [g, table] =
        load_graph_table_args(a.positional.at(0), a.positional.at(1));
    table.validate(g);
    const auto f = a.u32("--faults", 1);
    const auto claimed = a.u32("--claimed", 6);
    Rng rng(a.u64("--seed", 7));
    ToleranceCheckOptions opts;
    opts.exec = a.exec;
    const auto workers = a.u32("--workers", 0);
    ToleranceReport report;
    if (workers > 0) {
      const std::string snap_path =
          dist_snapshot_path(a.positional.at(0), a.positional.at(1));
      const TableSnapshot snap =
          make_table_snapshot(std::move(g), std::move(table));
      DistSweepPool pool(snap, snap_path, dist_pool_options(a, workers));
      opts.runner = [&pool](const UnitSpec& u) { return pool.run_adv(u); };
      report = check_tolerance(snap.table, snap.index, f, claimed, rng, opts);
      print_dist_stats(pool.stats());
    } else {
      report = check_tolerance(table, f, claimed, rng, opts);
    }
    std::cout << report.summary() << '\n';
    if (!report.worst_faults.empty()) {
      std::cout << "worst fault set:";
      for (Node v : report.worst_faults) std::cout << ' ' << v;
      std::cout << '\n';
    }
    return report.holds ? 0 : 1;
  });
}

}  // namespace ftr::cli
