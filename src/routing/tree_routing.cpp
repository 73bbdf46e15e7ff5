#include "routing/tree_routing.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "graph/connectivity.hpp"
#include "graph/node_marks.hpp"

namespace ftr {

std::vector<Node> TreeRouting::endpoints() const {
  std::vector<Node> out;
  out.reserve(paths.size());
  for (const Path& p : paths) out.push_back(p.back());
  return out;
}

TreeRouting build_tree_routing(const Graph& g, Node x,
                               const std::vector<Node>& target_set,
                               std::uint32_t width) {
  FTR_EXPECTS(width >= 1);
  auto paths = disjoint_paths_to_set(g, x, target_set);
  FTR_EXPECTS_MSG(paths.size() >= width,
                  "only " << paths.size() << " disjoint paths from " << x
                          << " to the target set; " << width << " required");

  // disjoint_paths_to_set returns direct-edge paths first; keep that prefix
  // and order the rest shortest-first, then trim to the requested width.
  const auto direct_end = std::find_if(
      paths.begin(), paths.end(), [](const Path& p) { return p.size() != 2; });
  std::sort(direct_end, paths.end(), [](const Path& a, const Path& b) {
    return a.size() < b.size();
  });
  paths.resize(width);

  TreeRouting tr{x, std::move(paths)};
  FTR_ENSURES(validate_tree_routing(g, tr, target_set));
  return tr;
}

bool validate_tree_routing(const Graph& g, const TreeRouting& tr,
                           const std::vector<Node>& target_set) {
  constexpr std::uint8_t kTarget = 1, kEndpoint = 2, kInternal = 4;
  thread_local NodeMarks marks;
  marks.begin(g.num_nodes());
  for (Node m : target_set) {
    if (g.valid_node(m)) marks.set(m, kTarget);  // others match no path node
  }
  if (g.valid_node(tr.source) && marks.has(tr.source, kTarget)) return false;

  for (const Path& p : tr.paths) {
    if (p.size() < 2) return false;
    if (p.front() != tr.source) return false;
    if (!g.is_simple_path(p)) return false;
    if (!marks.has(p.back(), kTarget)) return false;
    if (marks.has(p.back(), kEndpoint)) return false;  // dup target
    marks.set(p.back(), kEndpoint);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      if (marks.has(p[i], kTarget)) return false;  // must stop at first M node
      if (marks.has(p[i], kInternal)) return false;  // not disjoint
      marks.set(p[i], kInternal);
    }
    // Direct-edge rule: a chosen endpoint adjacent to x is reached by the
    // edge itself.
    if (g.has_edge(tr.source, p.back()) && p.size() != 2) return false;
  }
  // Endpoints must not appear as internal nodes of other paths.
  for (const Path& p : tr.paths) {
    if (marks.has(p.back(), kInternal)) return false;
  }
  return true;
}

void install_tree_routing(RouteTableBuilder& table, const TreeRouting& tr) {
  for (const Path& p : tr.paths) table.set_route(p);
}

}  // namespace ftr
