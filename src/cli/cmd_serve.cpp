#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "serve/request_router.hpp"
#include "serve/table_registry.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "serve",
      .positional = "",
      .summary =
          "answer check|sweep|delivery|certify request lines over a named\n"
          "  table manifest, one response line per request, in order",
      .flags =
          {
              {"--tables", "MANIFEST", "table manifest file (required)"},
              {"--requests", "FILE", "request lines file"},
              {"--stdin", nullptr, "read request lines from stdin"},
              {"--max-resident-bytes", "B",
               "LRU-evict resident tables, built or snapshot-loaded,\n"
               "        past this budget (0 = unlimited)"},
              kThreadsFlag,
              kBatchFlag,
              kProgressFlag,
          },
      .min_positional = 0,
      .max_positional = 0,
      .notes =
          "exactly one of --requests FILE or --stdin is required\n"
          "manifest lines: table <name> graph=<file> [routes=<file>] "
          "[seed=S]\n"
          "                table <name> snapshot=<file>\n"
          "request lines:  check|sweep|delivery|certify <table> "
          "[key=value...]\n",
  };
  return s;
}

}  // namespace

int cmd_serve(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const std::string tables_path = a.str("--tables", "");
    if (tables_path.empty()) {
      throw UsageError("serve needs --tables MANIFEST");
    }
    const std::string requests_path = a.str("--requests", "");
    const bool from_stdin = a.has("--stdin");
    if (requests_path.empty() == !from_stdin) {
      throw UsageError("serve needs exactly one of --requests FILE or --stdin");
    }

    TableRegistryOptions ropts;
    ropts.max_resident_bytes =
        static_cast<std::size_t>(a.u64("--max-resident-bytes", 0));
    TableRegistry registry(ropts);
    {
      std::ifstream mf(tables_path);
      if (!mf) {
        std::cerr << "cannot open tables manifest " << tables_path << '\n';
        return 2;
      }
      const auto defined = load_table_manifest(mf, registry);
      std::cerr << "registry: " << defined << " table(s) defined";
      if (ropts.max_resident_bytes > 0) {
        std::cerr << ", budget " << ropts.max_resident_bytes << " bytes";
      }
      std::cerr << '\n';
    }

    ServeOptions sopts;
    sopts.exec = exec_policy_args(a, sopts.exec);
    if (sopts.exec.progress_every > 0) {
      // Progress is telemetry: stderr only, so stdout keeps the
      // bit-identical contract across threads/batches/progress settings.
      sopts.on_progress = [](const ServeProgress& p) {
        std::cerr << "  ... " << p.requests_done << " requests, "
                  << static_cast<std::uint64_t>(
                         p.seconds > 0.0
                             ? static_cast<double>(p.requests_done) / p.seconds
                             : 0.0)
                  << " req/sec; registry hits=" << p.registry.hits
                  << " misses=" << p.registry.misses
                  << " builds=" << p.registry.builds
                  << " snapshot_loads=" << p.registry.snapshot_loads
                  << " evictions=" << p.registry.evictions
                  << " resident_bytes=" << p.registry.resident_bytes
                  << "; executor " << executor_stats_str(p.executor) << '\n';
      };
    }

    ServeSummary summary;
    if (from_stdin) {
      IstreamRequestSource source(std::cin);
      summary = serve_requests(registry, source, std::cout, sopts);
    } else {
      std::ifstream rf(requests_path);
      if (!rf) {
        std::cerr << "cannot open requests file " << requests_path << '\n';
        return 2;
      }
      IstreamRequestSource source(rf);
      summary = serve_requests(registry, source, std::cout, sopts);
    }

    // Timing and registry churn are scheduling/budget-dependent, so they go
    // to stderr: stdout stays bit-identical for any --threads/--batch value.
    std::cerr << "served " << summary.requests << " request(s) ("
              << summary.checks << " check, " << summary.sweeps << " sweep, "
              << summary.deliveries << " delivery, " << summary.certifies
              << " certify, " << summary.errors << " error) on "
              << summary.threads_used << " thread(s): "
              << static_cast<std::uint64_t>(summary.requests_per_sec)
              << " req/sec\n"
              << "registry: hits=" << summary.registry.hits
              << " misses=" << summary.registry.misses
              << " builds=" << summary.registry.builds
              << " snapshot_loads=" << summary.registry.snapshot_loads
              << " evictions=" << summary.registry.evictions
              << " resident=" << summary.registry.resident_tables
              << " table(s), " << summary.registry.resident_bytes << " bytes\n"
              << "executor: " << executor_stats_str(summary.executor) << '\n';
    return summary.errors == 0 ? 0 : 1;
  });
}

}  // namespace ftr::cli
