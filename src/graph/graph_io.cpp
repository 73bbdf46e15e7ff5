#include "graph/graph_io.hpp"

#include <ostream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/parse.hpp"

namespace ftr {

void save_graph(const Graph& g, std::ostream& os) {
  os << "ftroute-graph v1 " << g.num_nodes() << '\n';
  for (const auto& [u, v] : g.edges()) os << "edge " << u << ' ' << v << '\n';
  os << "end\n";
}

std::string graph_to_string(const Graph& g) {
  std::ostringstream os;
  save_graph(g, os);
  return os.str();
}

Graph load_graph(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  FTR_EXPECTS_MSG(next_data_line(is, line, line_no), "missing graph header");
  const auto header = split_tokens(line);
  FTR_EXPECTS_MSG(header.size() == 3 && header[0] == "ftroute-graph" &&
                      header[1] == "v1",
                  "line " << line_no << ": bad graph header: '" << line << "'");
  const auto n = static_cast<std::size_t>(
      parse_header_count(header[2], kMaxTextNodes, "node count", line_no));

  GraphBuilder builder(n);
  for (;;) {
    FTR_EXPECTS_MSG(next_data_line(is, line, line_no),
                    "missing 'end' terminator");
    const auto tokens = split_tokens(line);
    if (tokens.size() == 1 && tokens[0] == "end") break;
    FTR_EXPECTS_MSG(tokens.size() == 3 && tokens[0] == "edge",
                    "line " << line_no << ": unexpected graph line: '" << line
                            << "'");
    const auto u = parse_u64(tokens[1]);
    const auto v = parse_u64(tokens[2]);
    FTR_EXPECTS_MSG(u.has_value() && v.has_value() && *u < n && *v < n,
                    "line " << line_no << ": edge endpoint non-numeric or out "
                            << "of range: '" << line << "'");
    builder.add_edge(static_cast<Node>(*u), static_cast<Node>(*v));
  }
  expect_nothing_after_end(is, line_no);
  return builder.build();
}

Graph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_graph(is);
}

}  // namespace ftr
