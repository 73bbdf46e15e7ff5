#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"

namespace ftr::cli {
namespace {

using namespace ftr;

const VerbSpec& spec() {
  static const VerbSpec s{
      .name = "gen",
      .positional = "<family> <args...>",
      .summary = "generate a graph and write it to stdout",
      .flags = {},
      .min_positional = 1,
      .max_positional = 4,
      .notes =
          "families: cycle n | torus r c | grid r c | hypercube d | ccc d |\n"
          "  wbf d | butterfly d | debruijn d | se d | petersen |\n"
          "  dodecahedron | desargues | gp n k | gnp n p seed | rr n d seed\n",
  };
  return s;
}

GeneratedGraph generate(const std::vector<std::string>& args) {
  const auto& family = args.at(0);
  auto num = [&](std::size_t i) {
    // Strict like the flag parsing: stoull would wrap "gen cycle -1" into
    // an 18-quintillion-node request instead of an error.
    if (i >= args.size()) {
      throw std::runtime_error("missing " + family + " argument");
    }
    const auto v = parse_u64(args.at(i));
    if (!v.has_value()) {
      throw std::runtime_error("bad " + family + " argument '" + args.at(i) +
                               "'");
    }
    return static_cast<std::size_t>(*v);
  };
  if (family == "cycle") return cycle_graph(num(1));
  if (family == "torus") return torus_graph(num(1), num(2));
  if (family == "grid") return grid_graph(num(1), num(2));
  if (family == "hypercube") return hypercube(num(1));
  if (family == "ccc") return cube_connected_cycles(num(1));
  if (family == "wbf") return wrapped_butterfly(num(1));
  if (family == "butterfly") return butterfly(num(1));
  if (family == "debruijn") return de_bruijn(num(1));
  if (family == "se") return shuffle_exchange(num(1));
  if (family == "petersen") return petersen_graph();
  if (family == "dodecahedron") return dodecahedron();
  if (family == "desargues") return desargues_graph();
  if (family == "gp") return generalized_petersen(num(1), num(2));
  if (family == "gnp") {
    if (args.size() < 4) throw std::runtime_error("gnp needs n p seed");
    Rng rng(num(3));
    return gnp(num(1), std::stod(args.at(2)), rng);
  }
  if (family == "rr") {
    Rng rng(num(3));
    return random_regular(num(1), num(2), rng);
  }
  throw std::runtime_error("unknown family: " + family);
}

}  // namespace

int cmd_gen(const std::vector<std::string>& args) {
  return run_verb(spec(), args, [](const ParsedArgs& a) {
    const auto gg = generate(a.positional);
    std::cout << "# " << gg.name << '\n';
    save_graph(gg.graph, std::cout);
    return 0;
  });
}

}  // namespace ftr::cli
