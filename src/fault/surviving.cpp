#include "fault/surviving.hpp"

#include "common/contracts.hpp"
#include "graph/bfs.hpp"

namespace ftr {

namespace {

std::vector<char> fault_flags(std::size_t n, const std::vector<Node>& faults) {
  std::vector<char> faulty(n, 0);
  for (Node f : faults) {
    FTR_EXPECTS_MSG(f < n, "fault " << f << " out of range");
    faulty[f] = 1;
  }
  return faulty;
}

bool path_survives(PathView p, const std::vector<char>& faulty) {
  for (Node v : p) {
    if (faulty[v]) return false;
  }
  return true;
}

}  // namespace

Digraph surviving_graph(const RoutingTable& table,
                        const std::vector<Node>& faults) {
  const std::size_t n = table.num_nodes();
  const auto faulty = fault_flags(n, faults);
  Digraph r(n);
  for (Node v = 0; v < n; ++v) {
    if (faulty[v]) r.remove_node(v);
  }
  // add_arc ignores an arc already present, so a pair's arc stands once
  // any of its routes survives.
  table.for_each_view([&](Node x, Node y, PathView path) {
    if (!faulty[x] && !faulty[y] && path_survives(path, faulty)) {
      r.add_arc(x, y);
    }
  });
  return r;
}

std::uint32_t surviving_diameter(const RoutingTable& table,
                                 const std::vector<Node>& faults) {
  return diameter(surviving_graph(table, faults));
}

}  // namespace ftr
