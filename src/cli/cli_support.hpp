// Shared CLI plumbing: the per-verb flag registry + strict parser, usage
// generation, and the helpers every verb leans on (mapping the
// <graph>/<table> positionals to a TableSpec, distributed-pool option
// mapping, telemetry rendering).
//
// The contract every verb gets from run_verb():
//   * `--help` prints usage generated from the verb's registry (stdout,
//     exit 0) — no other work happens;
//   * an unknown flag, a missing flag value, or a malformed value raises
//     UsageError: the message and the verb's usage go to stderr, exit 2;
//   * any other exception prints "error: <what>" to stderr, exit 1;
//   * the execution knobs `--threads/--batch/--progress-every` are three
//     shared VerbFlag rows that each verb lists among its flags, read into
//     the verb's ExecPolicy by exec_policy_args, so they mean the same thing
//     on every verb that has them (common/exec_policy.hpp is the single
//     resolution authority).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/parallel.hpp"
#include "dist/coordinator.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {

/// A verb-specific flag. value_name == nullptr marks a boolean flag (no
/// value token follows it).
struct VerbFlag {
  const char* flag;
  const char* value_name;  // nullptr: boolean presence flag
  const char* help;
};

struct VerbSpec {
  const char* name;        // "sweep"
  const char* positional;  // "<graph> <table>" or "" when none
  const char* summary;     // one-line description for usage
  std::vector<VerbFlag> flags;
  std::size_t min_positional = 0;
  std::size_t max_positional = 0;
  const char* notes = nullptr;  // free-form trailing usage text
};

/// The execution-policy flags (common/exec_policy.hpp), shared by every
/// verb that lists them among its flags.
inline constexpr VerbFlag kThreadsFlag{
    "--threads", "T", "worker threads (0 = all cores, max 256; default 1)"};
inline constexpr VerbFlag kBatchFlag{
    "--batch", "B",
    "items per chunk (serve: requests per worker per window)"};
inline constexpr VerbFlag kProgressFlag{
    "--progress-every", "N",
    "emit a progress line to stderr every N items (0 = never;\n"
    "        in-process only)"};

/// Raised for malformed command lines; run_verb turns it into exit 2 with
/// the verb's usage on stderr.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ParsedArgs {
  std::vector<std::string> positional;
  /// Verb flag occurrences: flag -> raw value ("" for boolean flags).
  /// First occurrence wins, matching the historical scan order.
  std::map<std::string, std::string> values;

  bool has(const std::string& flag) const;
  std::string str(const std::string& flag, const std::string& fallback) const;
  /// Strict full-token base-10; throws UsageError on malformed values so
  /// "--sets 12frog" is exit 2, never a truncated 12.
  std::uint64_t u64(const std::string& flag, std::uint64_t fallback) const;
  /// Range-checked narrowing: "--faults 4294967296" must be rejected, not
  /// silently wrap.
  std::uint32_t u32(const std::string& flag, std::uint32_t fallback) const;
};

/// Usage text generated from the registry: synopsis, flags, then notes.
std::string verb_usage(const VerbSpec& spec);

/// Strict parse: every "--flag" token must match the verb registry, else
/// UsageError. Non-flag tokens are positionals, bounds-checked against the
/// spec.
ParsedArgs parse_verb_args(const VerbSpec& spec,
                           const std::vector<std::string>& args);

/// The uniform verb wrapper (see the contract at the top of this header).
int run_verb(const VerbSpec& spec, const std::vector<std::string>& args,
             const std::function<int(const ParsedArgs&)>& body);

// ---- helpers shared across verbs ----------------------------------------

/// `policy` (the verb's library default) with --threads, --batch and
/// --progress-every applied where given; a verb that does not list a flag
/// never sees it, so it keeps the default.
ExecPolicy exec_policy_args(const ParsedArgs& a, ExecPolicy policy);

/// Stderr rendering of the executor probe, shared by the sweep/serve
/// progress lines and their closing summaries (telemetry only — it never
/// touches stdout, which stays bit-identical across execution knobs).
std::string executor_stats_str(const ExecutorStats& e);

/// The <graph>/<table> positionals as the spec load_table_inputs reads:
/// the same snapshot path for both becomes snapshot_file (loaded once,
/// plan included); otherwise each is a graph or routes file, text or
/// snapshot (sniffed by magic). Verbs load through
/// load_table_inputs(table_spec_args(...)), which validates the table, and
/// check/sweep then derive the index with make_table_snapshot (a
/// multirouting's text included; only --workers, which writes the
/// snapshot out, refuses one).
TableSpec table_spec_args(const std::string& graph_path,
                          const std::string& table_path);

/// load_table_inputs over table_spec_args, without the plan.
struct GraphTableArgs {
  Graph graph;
  RoutingTable table;
};
GraphTableArgs load_graph_table_args(const std::string& graph_path,
                                     const std::string& table_path);

/// Shared --workers plumbing for check/sweep: the verb's execution flags
/// become the per-worker policy (exec.threads = threads inside each forked
/// worker). The pool's knobs never affect stdout (the
/// bit-identity contract); they only shape scheduling.
DistPoolOptions dist_pool_options(const ParsedArgs& a, unsigned workers);

/// table_spec_args(...).snapshot_file: when the table came from a snapshot
/// file, workers mmap that same file — zero bytes shipped; otherwise (empty)
/// the coordinator stages the snapshot into an unlinked temp file the
/// forked workers inherit by fd.
std::string dist_snapshot_path(const std::string& graph_path,
                               const std::string& table_path);

void print_dist_stats(const DistStats& s);

}  // namespace ftr::cli
