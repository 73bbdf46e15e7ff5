#include "fault/fault_gen.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"

namespace ftr {

std::vector<std::vector<Node>> random_fault_sets(std::size_t n, std::size_t f,
                                                 std::size_t count, Rng& rng) {
  FTR_EXPECTS(f <= n);
  std::vector<std::vector<Node>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto sample = rng.sample(n, f);
    std::vector<Node> faults(sample.begin(), sample.end());
    out.push_back(std::move(faults));
  }
  return out;
}

std::vector<Node> nodes_by_route_load(const RoutingTable& table) {
  std::vector<std::uint64_t> load(table.num_nodes(), 0);
  table.for_each_view([&](Node, Node, PathView path) {
    for (Node v : path) ++load[v];
  });
  std::vector<Node> ranked(table.num_nodes());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](Node a, Node b) { return load[a] > load[b]; });
  return ranked;
}

}  // namespace ftr
