// ftroute CLI: one module per verb under src/cli/, a shared strict flag
// framework in cli_support.hpp, and a thin dispatcher (run_cli) that
// tools/ftroute_cli.cpp calls from main().
//
// Every verb rejects unknown flags and missing flag values uniformly (exit
// 2 with the verb's usage on stderr), answers `--help` with usage generated
// from its flag registry (stdout, exit 0), and resolves its execution knobs
// — threads, kernel, lanes, batch, progress cadence — through the
// ONE ExecPolicy authority in common/exec_policy.hpp.
#pragma once

#include <string>
#include <vector>

namespace ftr::cli {

int cmd_gen(const std::vector<std::string>& args);
int cmd_profile(const std::vector<std::string>& args);
int cmd_build(const std::vector<std::string>& args);
int cmd_check(const std::vector<std::string>& args);
int cmd_sweep(const std::vector<std::string>& args);
int cmd_serve(const std::vector<std::string>& args);
int cmd_stretch(const std::vector<std::string>& args);
int cmd_snapshot(const std::vector<std::string>& args);

/// Dispatches argv[1] to its verb (args = argv[1..]). Unknown or missing
/// verbs print the global usage to stderr and return 2.
int run_cli(const std::vector<std::string>& args);

}  // namespace ftr::cli
