// Test oracle: message delivery over a materialized Digraph. This is the
// original delivery path — a FIFO BFS over the one-shot surviving graph's
// sorted successor lists, with a deque and a parent vector per message —
// kept so the library's scratch-level route_path/measure_delivery can be
// checked against code that shares nothing with the SrgScratch bitset rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/surviving.hpp"
#include "graph/digraph.hpp"
#include "routing/route_table.hpp"
#include "sim/network_sim.hpp"

namespace ftr {

/// Fewest-arc path source -> target in `surviving` (source, ..., target;
/// just source when they coincide), or empty if target is unreachable.
inline std::vector<Node> oracle_route_path(const Digraph& surviving,
                                           Node source, Node target) {
  if (source == target) return {source};
  const std::size_t n = surviving.num_nodes();
  std::vector<Node> parent(n, static_cast<Node>(n));
  std::deque<Node> queue;
  parent[source] = source;
  queue.push_back(source);
  while (!queue.empty()) {
    const Node u = queue.front();
    queue.pop_front();
    for (Node v : surviving.successors(u)) {
      if (parent[v] != static_cast<Node>(n)) continue;
      parent[v] = u;
      if (v == target) {
        std::vector<Node> path;
        for (Node w = target; w != source; w = parent[w]) path.push_back(w);
        path.push_back(source);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

/// The route a message takes over the surviving arc x -> y: the first
/// route of the pair, in table order, that avoids every fault.
inline PathView first_live_route(const RoutingTable& table, Node x, Node y,
                                 const std::vector<Node>& faults) {
  for (const PathView route : table.routes(x, y)) {
    if (std::none_of(route.begin(), route.end(), [&](Node v) {
          return std::find(faults.begin(), faults.end(), v) != faults.end();
        })) {
      return route;
    }
  }
  FTR_ASSERT_MSG(false, "surviving arc without a live route");
  return {};
}

/// measure_delivery over the one-shot surviving graph of `faults`: same
/// pair draws, same integer totals.
inline DeliveryStats oracle_measure_delivery(const RoutingTable& table,
                                             const std::vector<Node>& faults,
                                             std::size_t sample_pairs,
                                             Rng& rng) {
  const Digraph surviving = surviving_graph(table, faults);
  const auto nodes = surviving.present_nodes();
  DeliveryStats stats;
  if (nodes.size() < 2) return stats;

  auto run_pair = [&](Node s, Node t) {
    ++stats.pairs_sampled;
    const auto path = oracle_route_path(surviving, s, t);
    if (path.empty()) return;
    const auto route_hops = static_cast<std::uint32_t>(path.size() - 1);
    std::uint64_t edge_hops = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      edge_hops += first_live_route(table, path[i], path[i + 1], faults).hops();
    }
    ++stats.delivered;
    stats.route_hops_total += route_hops;
    stats.edge_hops_total += edge_hops;
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

  if (stats.delivered > 0) {
    stats.avg_route_hops = static_cast<double>(stats.route_hops_total) /
                           static_cast<double>(stats.delivered);
    stats.avg_edge_hops = static_cast<double>(stats.edge_hops_total) /
                          static_cast<double>(stats.delivered);
  }
  return stats;
}

}  // namespace ftr
