// Graph persistence: a line-oriented edge-list format so users can run the
// library on their own topologies (and the CLI tool can pipe graphs
// between commands).
//
// Format:
//   ftroute-graph v1 <num_nodes>
//   edge <u> <v>
//   ...
//   end
// '#' starts a comment that runs to the end of its line, blank lines are
// ignored, and only blank or comment lines may follow `end`.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace ftr {

void save_graph(const Graph& g, std::ostream& os);
std::string graph_to_string(const Graph& g);

/// Throws ContractViolation, naming the line, on malformed input: a bad
/// header or a node count above kMaxTextNodes, a non-numeric, out-of-range or
/// self-loop edge, extra tokens, a missing "end" or data after it, or a
/// line longer than kMaxLineBytes.
Graph load_graph(std::istream& is);
Graph graph_from_string(const std::string& text);

}  // namespace ftr
