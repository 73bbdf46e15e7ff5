// ftroute CLI entry point. The verbs live in src/cli/ (one module each,
// sharing the strict flag framework in src/cli/cli_support.hpp); this file
// only adapts argv and dispatches.
//
//   ftroute gen <family> <args...>           > graph.ftg
//   ftroute profile        < graph.ftg
//   ftroute build          < graph.ftg > table.ftt
//   ftroute check <graph> <table> --faults F ...
//   ftroute sweep <graph> <table> ...
//   ftroute serve --tables MANIFEST ...
//   ftroute stretch <graph> <table>
//   ftroute snapshot --graph FILE --out FILE ...
//
// Run `ftroute <verb> --help` for the verb's flags; the execution-policy
// flags (--threads/--kernel/--lanes/--batch/--progress-every)
// are shared across verbs and documented in src/common/exec_policy.hpp.
// Every verb's stdout is bit-identical across all execution knobs.
#include <string>
#include <vector>

#include "cli/cli.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return ftr::cli::run_cli(args);
}
