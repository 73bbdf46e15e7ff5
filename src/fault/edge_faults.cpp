#include "fault/edge_faults.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/contracts.hpp"

namespace ftr {

EdgeFault make_edge_fault(Node a, Node b) {
  FTR_EXPECTS(a != b);
  return a < b ? EdgeFault{a, b} : EdgeFault{b, a};
}

namespace {

std::uint64_t edge_key(Node u, Node v, std::size_t n) {
  return static_cast<std::uint64_t>(std::min(u, v)) * n + std::max(u, v);
}

}  // namespace

Digraph surviving_graph_with_edge_faults(
    const RoutingTable& table, const std::vector<Node>& node_faults,
    const std::vector<EdgeFault>& edge_faults) {
  const std::size_t n = table.num_nodes();
  std::vector<char> faulty(n, 0);
  for (Node f : node_faults) {
    FTR_EXPECTS(f < n);
    faulty[f] = 1;
  }
  std::unordered_set<std::uint64_t> dead_edges;
  for (const EdgeFault& ef : edge_faults) {
    FTR_EXPECTS(ef.u < n && ef.v < n && ef.u != ef.v);
    dead_edges.insert(edge_key(ef.u, ef.v, n));
  }

  Digraph r(n);
  for (Node v = 0; v < n; ++v) {
    if (faulty[v]) r.remove_node(v);
  }
  table.for_each_view([&](Node x, Node y, PathView path) {
    if (faulty[x] || faulty[y]) return;
    for (Node v : path) {
      if (faulty[v]) return;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (dead_edges.count(edge_key(path[i], path[i + 1], n))) return;
    }
    r.add_arc(x, y);
  });
  return r;
}

std::vector<Node> reduce_edge_faults_to_nodes(
    const std::vector<Node>& node_faults,
    const std::vector<EdgeFault>& edge_faults) {
  std::unordered_set<Node> out(node_faults.begin(), node_faults.end());
  for (const EdgeFault& ef : edge_faults) {
    out.insert(std::min(ef.u, ef.v));
  }
  std::vector<Node> result(out.begin(), out.end());
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace ftr
