#include "sim/network_sim.hpp"

#include <algorithm>


namespace ftr {

DeliveryStats measure_delivery(SrgScratch& scratch, std::size_t sample_pairs,
                               Rng& rng) {
  const SrgIndex& index = scratch.index();
  const std::span<const Node> nodes = scratch.last_survivors();
  DeliveryStats stats;
  if (nodes.size() < 2) return stats;

  std::uint64_t total_route_hops = 0;
  std::uint64_t total_edge_hops = 0;

  auto run_pair = [&](Node s, Node t) {
    ++stats.pairs_sampled;
    const std::span<const Node> path = scratch.route_path(s, t);
    if (path.empty()) return;
    const auto route_hops = static_cast<std::uint32_t>(path.size() - 1);
    std::uint64_t edge_hops = 0;
    for (const std::uint32_t r : scratch.path_routes()) {
      edge_hops += index.route(r).hops();
    }
    ++stats.delivered;
    total_route_hops += route_hops;
    total_edge_hops += edge_hops;
    stats.max_route_hops = std::max(stats.max_route_hops, route_hops);
    stats.max_edge_hops = std::max(stats.max_edge_hops, edge_hops);
  };

  if (sample_pairs == 0) {
    for (Node s : nodes) {
      for (Node t : nodes) {
        if (s != t) run_pair(s, t);
      }
    }
  } else {
    for (std::size_t i = 0; i < sample_pairs; ++i) {
      const Node s = nodes[rng.below(nodes.size())];
      Node t = nodes[rng.below(nodes.size())];
      while (t == s) t = nodes[rng.below(nodes.size())];
      run_pair(s, t);
    }
  }

  stats.route_hops_total = total_route_hops;
  stats.edge_hops_total = total_edge_hops;
  if (stats.delivered > 0) {
    stats.avg_route_hops = static_cast<double>(total_route_hops) /
                           static_cast<double>(stats.delivered);
    stats.avg_edge_hops = static_cast<double>(total_edge_hops) /
                          static_cast<double>(stats.delivered);
  }
  return stats;
}

}  // namespace ftr
