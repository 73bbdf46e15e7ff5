#include "routing/hypercube_routing.hpp"

#include "common/contracts.hpp"

namespace ftr {

namespace {

Path bitfix_path(Node from, Node to, std::size_t dim) {
  Path p{from};
  Node cur = from;
  for (std::size_t b = 0; b < dim; ++b) {
    const Node mask = Node{1} << b;
    if ((cur & mask) != (to & mask)) {
      cur ^= mask;
      p.push_back(cur);
    }
  }
  FTR_ASSERT(cur == to);
  return p;
}

void check_is_hypercube(const Graph& g, std::size_t dim) {
  FTR_EXPECTS_MSG(g.num_nodes() == (std::size_t{1} << dim),
                  "graph has " << g.num_nodes() << " nodes, expected 2^" << dim);
  FTR_EXPECTS_MSG(g.num_edges() == dim * (std::size_t{1} << (dim - 1)),
                  "graph is not the " << dim << "-cube");
}

}  // namespace

RoutingTable build_bitfixing_unidirectional(const Graph& hypercube,
                                            std::size_t dim) {
  check_is_hypercube(hypercube, dim);
  const std::size_t n = hypercube.num_nodes();
  RouteTableBuilder table(n, RoutingMode::kUnidirectional);
  for (Node x = 0; x < n; ++x) {
    for (Node y = 0; y < n; ++y) {
      if (x == y) continue;
      table.set_route(bitfix_path(x, y, dim));
    }
  }
  return std::move(table).build();
}

RoutingTable build_bitfixing_bidirectional(const Graph& hypercube,
                                           std::size_t dim) {
  check_is_hypercube(hypercube, dim);
  const std::size_t n = hypercube.num_nodes();
  RouteTableBuilder table(n, RoutingMode::kBidirectional);
  for (Node x = 0; x < n; ++x) {
    for (Node y = x + 1; y < n; ++y) {
      table.set_route(bitfix_path(x, y, dim));
    }
  }
  return std::move(table).build();
}

}  // namespace ftr
