#include "cli/cli_support.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>

#include "cli/cli.hpp"
#include "common/parse.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"

namespace ftr::cli {

bool ParsedArgs::has(const std::string& flag) const {
  return values.find(flag) != values.end();
}

std::string ParsedArgs::str(const std::string& flag,
                            const std::string& fallback) const {
  const auto it = values.find(flag);
  return it == values.end() ? fallback : it->second;
}

std::uint64_t ParsedArgs::u64(const std::string& flag,
                              std::uint64_t fallback) const {
  const auto it = values.find(flag);
  if (it == values.end()) return fallback;
  const auto v = parse_u64(it->second);
  if (!v.has_value()) {
    throw UsageError("bad value '" + it->second + "' for " + flag);
  }
  return *v;
}

std::uint32_t ParsedArgs::u32(const std::string& flag,
                              std::uint32_t fallback) const {
  const std::uint64_t v = u64(flag, fallback);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw UsageError("value too large for " + flag);
  }
  return static_cast<std::uint32_t>(v);
}

std::string verb_usage(const VerbSpec& spec) {
  std::string out = "usage: ftroute ";
  out += spec.name;
  if (spec.positional[0] != '\0') {
    out += ' ';
    out += spec.positional;
  }
  if (!spec.flags.empty() || spec.exec_mask != 0) out += " [flags]";
  out += '\n';
  out += "  ";
  out += spec.summary;
  out += '\n';
  if (!spec.flags.empty()) {
    out += "\nflags:\n";
    for (const VerbFlag& f : spec.flags) {
      std::string head = "  ";
      head += f.flag;
      if (f.value_name != nullptr) {
        head += ' ';
        head += f.value_name;
      }
      if (head.size() < 22) head.resize(22, ' ');
      out += head;
      out += "  ";
      out += f.help;
      out += '\n';
    }
  }
  if (spec.exec_mask != 0) {
    out += "\nexecution policy (see src/common/exec_policy.hpp):\n";
    out += exec_policy_usage(spec.exec_mask);
  }
  if (spec.notes != nullptr) {
    out += '\n';
    out += spec.notes;
  }
  return out;
}

ParsedArgs parse_verb_args(const VerbSpec& spec,
                           const std::vector<std::string>& args) {
  ParsedArgs out;
  out.exec = spec.exec_defaults;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      out.positional.push_back(a);
      continue;
    }
    const auto vf = std::find_if(
        spec.flags.begin(), spec.flags.end(),
        [&](const VerbFlag& f) { return a == f.flag; });
    if (vf != spec.flags.end()) {
      if (vf->value_name == nullptr) {
        out.values.emplace(a, "");
        continue;
      }
      if (i + 1 >= args.size()) throw UsageError("missing value for " + a);
      out.values.emplace(a, args[i + 1]);
      ++i;
      continue;
    }
    ExecFlagParse ep;
    try {
      ep = parse_exec_flag(spec.exec_mask, args, i, out.exec);
    } catch (const UsageError&) {
      throw;
    } catch (const std::exception& e) {
      // The exec registry's missing/bad-value complaints are command-line
      // problems: exit 2 with usage, like every other parse failure.
      throw UsageError(e.what());
    }
    if (ep.matched) {
      i += ep.consumed - 1;
      continue;
    }
    throw UsageError("unknown flag '" + a + "' for " + spec.name);
  }
  if (out.positional.size() < spec.min_positional) {
    throw UsageError(std::string(spec.name) + " needs " + spec.positional);
  }
  if (out.positional.size() > spec.max_positional) {
    throw UsageError("unexpected argument '" +
                     out.positional[spec.max_positional] + "' for " +
                     spec.name);
  }
  return out;
}

int run_verb(const VerbSpec& spec, const std::vector<std::string>& args,
             const std::function<int(const ParsedArgs&)>& body) {
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    std::cout << verb_usage(spec);
    return 0;
  }
  try {
    return body(parse_verb_args(spec, args));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << verb_usage(spec);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

std::string executor_stats_str(const ExecutorStats& e) {
  return "workers=" + std::to_string(e.workers) +
         " chunks=" + std::to_string(e.chunks_local);
}

Graph load_graph_arg(const std::string& path) {
  if (is_snapshot_file(path)) {
    return std::move(load_snapshot_inputs_file(path).graph);
  }
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open graph file '" + path + "'");
  return load_graph(f);
}

RoutingTable load_table_arg(const std::string& path) {
  if (is_snapshot_file(path)) {
    return std::move(load_snapshot_inputs_file(path).table);
  }
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open table file '" + path + "'");
  return load_routing_table(f);
}

GraphTableArgs load_graph_table_args(const std::string& graph_path,
                                     const std::string& table_path) {
  if (graph_path == table_path && is_snapshot_file(graph_path)) {
    SnapshotInputs in = load_snapshot_inputs_file(graph_path);
    return {std::move(in.graph), std::move(in.table)};
  }
  return {load_graph_arg(graph_path), load_table_arg(table_path)};
}

TableSnapshot load_snapshot_args(const std::string& graph_path,
                                 const std::string& table_path) {
  if (graph_path == table_path && is_snapshot_file(graph_path)) {
    TableSnapshot snap = load_table_snapshot_file(graph_path);
    snap.table.validate(snap.graph);
    return snap;
  }
  Graph graph = load_graph_arg(graph_path);
  RoutingTable table = load_table_arg(table_path);
  table.validate(graph);
  return make_table_snapshot(std::move(graph), std::move(table));
}

DistPoolOptions dist_pool_options(const ParsedArgs& a, unsigned workers) {
  DistPoolOptions popts;
  popts.workers = workers;
  popts.unit_items = a.u64("--worker-batch", 0);
  popts.exec = a.exec;
  popts.unit_timeout_sec =
      static_cast<double>(a.u64("--worker-timeout", 300));
  return popts;
}

std::string dist_snapshot_path(const std::string& graph_path,
                               const std::string& table_path) {
  return (graph_path == table_path && is_snapshot_file(graph_path))
             ? graph_path
             : std::string();
}

void print_dist_stats(const DistStats& s) {
  std::cerr << "distributed: " << s.workers_spawned << " worker(s); units "
            << s.units_dispatched << " dispatched, " << s.units_completed
            << " completed, " << s.units_retried << " retried, "
            << s.units_inline << " inline; " << s.bytes_tx << " bytes tx, "
            << s.bytes_rx << " bytes rx; " << s.workers_exited << " exited, "
            << s.workers_killed << " killed\n";
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    const auto& w = s.per_worker[i];
    if (w.units == 0) continue;
    const auto rate = w.busy_seconds > 0.0
                          ? static_cast<std::uint64_t>(
                                static_cast<double>(w.items) / w.busy_seconds)
                          : 0;
    std::cerr << "  worker " << i << ": " << w.units << " unit(s), " << w.items
              << " item(s), " << rate << " items/sec\n";
  }
}

namespace {

int global_usage() {
  std::cerr <<
      "usage: ftroute <verb> [args...]   (run 'ftroute <verb> --help' for "
      "per-verb flags)\n"
      "  gen <family> <args...>      generate a graph to stdout\n"
      "  profile                     profile a graph on stdin\n"
      "  build                       build a routing (graph on stdin, table "
      "to stdout)\n"
      "  check <graph> <table>       check a claimed fault tolerance\n"
      "  sweep <graph> <table>       sweep fault sets, streaming\n"
      "  serve                       answer request lines over a table "
      "manifest\n"
      "  stretch <graph> <table>     route-vs-distance stretch report\n"
      "  snapshot                    write the binary table snapshot\n"
      "families for gen: cycle n | torus r c | grid r c | hypercube d | "
      "ccc d |\n"
      "  wbf d | butterfly d | debruijn d | se d | petersen | dodecahedron "
      "|\n"
      "  desargues | gp n k | gnp n p seed | rr n d seed\n";
  return 2;
}

}  // namespace

int run_cli(const std::vector<std::string>& args) {
  if (args.empty()) return global_usage();
  const std::string cmd = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "gen") return cmd_gen(rest);
  if (cmd == "profile") return cmd_profile(rest);
  if (cmd == "build") return cmd_build(rest);
  if (cmd == "check") return cmd_check(rest);
  if (cmd == "sweep") return cmd_sweep(rest);
  if (cmd == "serve") return cmd_serve(rest);
  if (cmd == "stretch") return cmd_stretch(rest);
  if (cmd == "snapshot") return cmd_snapshot(rest);
  return global_usage();
}

}  // namespace ftr::cli
