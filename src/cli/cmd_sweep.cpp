#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/combinatorics.hpp"
#include "common/table.hpp"
#include "dist/coordinator.hpp"
#include "graph/bfs.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "sweep",
      .positional = "<graph> <table>",
      .summary =
          "sweep fault sets against a routing, streaming at constant\n"
          "  memory, and report the surviving-diameter distribution",
      .flags =
          {
              {"--faults", "F", "faults per sampled/exhaustive set (default 1)"},
              {"--sets", "N", "sampled fault sets (default 1000)"},
              {"--seed", "S", "sampling stream seed (default 7)"},
              {"--exhaustive", nullptr,
               "sweep all C(n,F) sets in revolving-door order (packed\n"
               "        lane blocks, --batch rounded up to a multiple of 512;\n"
               "        one set at a time with --delivery-pairs)"},
              {"--stdin", nullptr,
               "read one fault set per line from stdin (whitespace-\n"
               "        separated node ids, '#' comments)"},
              {"--delivery-pairs", "P",
               "also sample P delivery pairs per fault set (default 0)"},
              {"--workers", "W",
               "fork W snapshot-fed worker processes (each running\n"
               "        --threads threads); 0 = in-process (default).\n"
               "        Progress is in-process only: --progress-every is\n"
               "        rejected with W > 0"},
              {"--worker-batch", "R",
               "task items per distributed unit (0 = auto)"},
              {"--worker-timeout", "S",
               "per-unit seconds before a hung worker is killed\n"
               "        (default 300, 0 = off)"},
              kThreadsFlag,
              kBatchFlag,
              kProgressFlag,
          },
      .min_positional = 2,
      .max_positional = 2,
      .notes =
          "<graph>/<table> accept text files or binary snapshots (sniffed\n"
          "by magic). Stdout is bit-identical across every execution knob\n"
          "and any --workers/--worker-batch split; timings, progress, and\n"
          "executor telemetry go to stderr\n",
  };
  return s;
}

}  // namespace

int cmd_sweep(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const auto f = static_cast<std::size_t>(a.u64("--faults", 1));
    const auto sets = a.u64("--sets", 1000);
    const std::uint64_t seed = a.u64("--seed", 7);
    const bool from_stdin = a.has("--stdin");
    const bool exhaustive = a.has("--exhaustive");
    if (from_stdin && exhaustive) {
      throw UsageError("--stdin and --exhaustive are mutually exclusive");
    }

    FaultSweepOptions opts;
    opts.exec = exec_policy_args(a, opts.exec);
    opts.delivery_pairs =
        static_cast<std::size_t>(a.u64("--delivery-pairs", 0));
    opts.seed = seed;
    if (opts.exec.progress_every > 0) {
      // Progress is telemetry: stderr only, so stdout keeps the
      // bit-identical contract across threads/batches/progress settings.
      opts.on_progress = [](const FaultSweepProgress& p) {
        std::cerr << "  ... " << p.sets_done << " sets, worst=";
        if (p.worst_diameter == kUnreachable) {
          std::cerr << "disconnected";
        } else {
          std::cerr << p.worst_diameter;
        }
        std::cerr << ", disconnected=" << p.disconnected << ", "
                  << static_cast<std::uint64_t>(
                         p.seconds > 0.0
                             ? static_cast<double>(p.sets_done) / p.seconds
                             : 0.0)
                  << " sets/sec\n";
      };
    }

    const auto workers = a.u32("--workers", 0);
    if (workers > 0 && opts.exec.progress_every > 0) {
      throw UsageError("--progress-every is in-process only; it cannot be "
                       "combined with --workers");
    }
    const TableSpec table = table_spec_args(a.positional.at(0),
                                            a.positional.at(1));
    const TableSnapshot snap = make_table_snapshot(load_table_inputs(table));
    // A bounded sweep is one whole-space unit; a --stdin feed is cut into
    // explicit-set units as it is read. Set i of a sampled sweep is a pure
    // function of (seed, i), so no sweep materializes its sets.
    const std::size_t n = snap.graph.num_nodes();
    const UnitSpec unit =
        exhaustive
            ? sweep_unit(UnitKind::kSweepGray, f, checked_binomial(n, f), opts)
            : sweep_unit(UnitKind::kSweepSampled, f, sets, opts);
    IstreamFaultSetSource source(std::cin, n);
    FaultSweepSummary summary;
    if (workers > 0) {
      // Multi-process fan-out: the partition into units and their merge use
      // the same global-index discipline as the in-process executor, so
      // stdout below is bit-identical to --workers 0 for any W and unit
      // size.
      DistSweepPool pool(snap, table.snapshot_file,
                         dist_pool_options(a, workers));
      const auto t0 = std::chrono::steady_clock::now();
      summary = summarize_sweep_partial(from_stdin
                                            ? pool.sweep_source(source, opts)
                                            : pool.run(unit));
      summary.threads_used = opts.exec.resolved_threads();
      summary.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      summary.fault_sets_per_sec =
          summary.seconds > 0.0
              ? static_cast<double>(summary.total_sets) / summary.seconds
              : 0.0;
      print_dist_stats(pool.stats());
    } else {
      summary = from_stdin ? sweep_fault_source(snap.table, *snap.index,
                                                source, opts)
                           : sweep_unit_summary(*snap.index, unit,
                                                opts.on_progress);
    }

    Table t({"metric", "value"});
    t.add_row({"fault sets", Table::cell(summary.total_sets)});
    if (!from_stdin) t.add_row({"faults per set", Table::cell(f)});
    t.add_row({"disconnected sets", Table::cell(summary.disconnected)});
    t.add_row({"worst diameter", summary.worst_diameter == kUnreachable
                                     ? "disconnected"
                                     : Table::cell(summary.worst_diameter)});
    if (opts.delivery_pairs > 0) {
      t.add_row({"pairs sampled", Table::cell(summary.pairs_sampled)});
      t.add_row({"delivered", Table::cell(summary.delivered)});
      t.add_row({"avg route hops", Table::cell(summary.avg_route_hops, 3)});
      t.add_row({"max route hops", Table::cell(summary.max_route_hops)});
      t.add_row({"max edge hops", Table::cell(summary.max_edge_hops)});
    }
    t.print(std::cout);

    std::cout << "\ndiameter histogram:\n";
    for (std::uint32_t d = 0; d < summary.diameter_histogram.size(); ++d) {
      if (summary.diameter_histogram[d] == 0) continue;
      std::cout << "  d=" << d << ": " << summary.diameter_histogram[d]
                << '\n';
    }
    if (summary.disconnected > 0) {
      std::cout << "  disconnected: " << summary.disconnected << '\n';
    }
    if (summary.total_sets > 0) {
      std::cout << "worst fault set (#" << summary.worst_index << "):";
      for (Node v : summary.worst_faults) std::cout << ' ' << v;
      std::cout << '\n';
    }

    // Timing and executor telemetry are scheduling-dependent, so they go to
    // stderr: stdout stays bit-identical for any --threads value.
    std::cerr << "swept " << summary.total_sets << " fault sets on "
              << summary.threads_used << " thread(s): "
              << static_cast<std::uint64_t>(summary.fault_sets_per_sec)
              << " fault-sets/sec\n"
              << "executor: " << executor_stats_str(summary.executor) << '\n';
    return 0;
  });
}

}  // namespace ftr::cli
