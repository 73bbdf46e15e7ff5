// Test oracle for the Menger engine: the original Dinic network (one heap
// adjacency vector per node, a deque per level BFS that runs to
// exhaustion) and the Menger queries built on it with hash sets, exactly as
// the library computed them before its network became a reusable CSR with a
// sink-level BFS cutoff. The library promises identical outputs — the same
// paths in the same order, the same cuts — so tests compare the two
// directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/contracts.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace ftr::flow_oracle {

class FlowNetwork {
 public:
  explicit FlowNetwork(std::size_t num_nodes) : head_(num_nodes) {}

  std::size_t add_edge(std::uint32_t u, std::uint32_t v, std::int64_t cap) {
    const std::size_t id = to_.size();
    to_.push_back(v);
    cap_.push_back(cap);
    init_.push_back(cap);
    head_[u].push_back(id);
    to_.push_back(u);
    cap_.push_back(0);
    init_.push_back(0);
    head_[v].push_back(id + 1);
    return id;
  }

  std::int64_t max_flow(std::uint32_t s, std::uint32_t t,
                        std::int64_t limit = INT64_MAX) {
    std::int64_t flow = 0;
    while (flow < limit && bfs_levels(s, t)) {
      iter_.assign(head_.size(), 0);
      while (flow < limit) {
        const std::int64_t got = dfs_augment(s, t, limit - flow);
        if (got == 0) break;
        flow += got;
      }
    }
    return flow;
  }

  std::int64_t flow_on(std::size_t id) const { return init_[id] - cap_[id]; }

  std::vector<char> residual_reachable(std::uint32_t s) const {
    std::vector<char> seen(head_.size(), 0);
    std::deque<std::uint32_t> queue{s};
    seen[s] = 1;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      for (std::size_t id : head_[u]) {
        if (cap_[id] > 0 && !seen[to_[id]]) {
          seen[to_[id]] = 1;
          queue.push_back(to_[id]);
        }
      }
    }
    return seen;
  }

  std::uint32_t edge_to(std::size_t id) const { return to_[id]; }

  void consume_unit(std::size_t id) {
    FTR_ASSERT(flow_on(id) >= 1);
    cap_[id] += 1;
    cap_[id ^ 1] -= 1;
  }

  const std::vector<std::size_t>& out_edges(std::uint32_t u) const {
    return head_[u];
  }

 private:
  static constexpr std::uint32_t kNoLevel =
      std::numeric_limits<std::uint32_t>::max();

  bool bfs_levels(std::uint32_t s, std::uint32_t t) {
    level_.assign(head_.size(), kNoLevel);
    std::deque<std::uint32_t> queue{s};
    level_[s] = 0;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      for (std::size_t id : head_[u]) {
        const std::uint32_t v = to_[id];
        if (cap_[id] > 0 && level_[v] == kNoLevel) {
          level_[v] = level_[u] + 1;
          queue.push_back(v);
        }
      }
    }
    return level_[t] != kNoLevel;
  }

  std::int64_t dfs_augment(std::uint32_t u, std::uint32_t t,
                           std::int64_t pushed) {
    if (u == t) return pushed;
    for (std::size_t& i = iter_[u]; i < head_[u].size(); ++i) {
      const std::size_t id = head_[u][i];
      const std::uint32_t v = to_[id];
      if (cap_[id] > 0 && level_[v] == level_[u] + 1) {
        const std::int64_t got = dfs_augment(v, t, std::min(pushed, cap_[id]));
        if (got > 0) {
          cap_[id] -= got;
          cap_[id ^ 1] += got;
          return got;
        }
      }
    }
    return 0;
  }

  std::vector<std::vector<std::size_t>> head_;
  std::vector<std::uint32_t> to_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> init_;
  std::vector<std::uint32_t> level_;
  std::vector<std::size_t> iter_;
};

namespace detail {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
inline std::uint32_t in_node(Node v) { return 2 * v; }
inline std::uint32_t out_node(Node v) { return 2 * v + 1; }

inline FlowNetwork split_network(const Graph& g, Node x, Node y,
                                 bool skip_direct_edge) {
  FlowNetwork net(2 * g.num_nodes());
  for (Node v = 0; v < g.num_nodes(); ++v) {
    net.add_edge(in_node(v), out_node(v), (v == x || v == y) ? kInf : 1);
  }
  g.for_each_edge([&](Node u, Node v) {
    if (skip_direct_edge && ((u == x && v == y) || (u == y && v == x))) return;
    net.add_edge(out_node(u), in_node(v), kInf);
    net.add_edge(out_node(v), in_node(u), kInf);
  });
  return net;
}

inline Path extract_unit_path(FlowNetwork& net, Node x, std::uint32_t sink) {
  Path path{x};
  std::uint32_t cur = out_node(x);
  while (cur != sink) {
    bool advanced = false;
    for (std::size_t id : net.out_edges(cur)) {
      if ((id & 1) != 0 || net.flow_on(id) < 1) continue;
      net.consume_unit(id);
      cur = net.edge_to(id);
      advanced = true;
      break;
    }
    FTR_ASSERT(advanced);
    if (cur == sink) break;
    path.push_back(static_cast<Node>(cur / 2));
    bool hopped = false;
    for (std::size_t id : net.out_edges(cur)) {
      if ((id & 1) != 0 || net.flow_on(id) < 1) continue;
      net.consume_unit(id);
      cur = net.edge_to(id);
      hopped = true;
      break;
    }
    FTR_ASSERT(hopped);
  }
  return path;
}

}  // namespace detail

inline std::uint32_t local_node_connectivity(const Graph& g, Node x, Node y) {
  FlowNetwork net = detail::split_network(g, x, y, true);
  return static_cast<std::uint32_t>(
             net.max_flow(detail::out_node(x), detail::in_node(y))) +
         (g.has_edge(x, y) ? 1 : 0);
}

inline std::uint32_t node_connectivity(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n <= 1) return 0;
  if (g.num_edges() == n * (n - 1) / 2) {
    return static_cast<std::uint32_t>(n - 1);
  }
  if (!is_connected(g)) return 0;
  Node v = 0;
  for (Node u = 1; u < n; ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  auto best = static_cast<std::uint32_t>(g.degree(v));
  for (Node u = 0; u < n; ++u) {
    if (u == v || g.has_edge(u, v)) continue;
    best = std::min(best, flow_oracle::local_node_connectivity(g, v, u));
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) continue;
      best = std::min(
          best, flow_oracle::local_node_connectivity(g, nbrs[i], nbrs[j]));
    }
  }
  return best;
}

inline std::vector<Node> min_vertex_cut_between(const Graph& g, Node x,
                                                Node y) {
  FlowNetwork net = detail::split_network(g, x, y, false);
  net.max_flow(detail::out_node(x), detail::in_node(y));
  const auto reach = net.residual_reachable(detail::out_node(x));
  std::vector<Node> cut;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (v == x || v == y) continue;
    if (reach[detail::in_node(v)] && !reach[detail::out_node(v)]) {
      cut.push_back(v);
    }
  }
  return cut;
}

inline std::vector<Path> disjoint_paths(
    const Graph& g, Node x, Node y, std::optional<std::uint32_t> want = {}) {
  std::vector<Path> paths;
  std::uint32_t remaining = want.value_or(kUnreachable);
  if (remaining == 0) return paths;
  if (g.has_edge(x, y)) {
    paths.push_back(Path{x, y});
    --remaining;
  }
  if (remaining == 0) return paths;
  FlowNetwork net = detail::split_network(g, x, y, true);
  const std::int64_t flow =
      net.max_flow(detail::out_node(x), detail::in_node(y),
                   remaining == kUnreachable ? INT64_MAX : remaining);
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = detail::extract_unit_path(net, x, detail::in_node(y));
    p.push_back(y);
    paths.push_back(std::move(p));
  }
  return paths;
}

inline std::vector<Path> disjoint_paths_to_set(
    const Graph& g, Node x, const std::vector<Node>& target_set,
    const std::vector<Node>& avoid = {}) {
  using detail::in_node;
  using detail::out_node;
  const std::unordered_set<Node> m_set(target_set.begin(), target_set.end());
  const std::unordered_set<Node> avoid_set(avoid.begin(), avoid.end());
  std::vector<Path> paths;
  std::unordered_set<Node> seeded;
  for (Node m : g.neighbors(x)) {
    if (m_set.count(m) && !avoid_set.count(m)) {
      paths.push_back(Path{x, m});
      seeded.insert(m);
    }
  }
  const auto n = static_cast<std::uint32_t>(g.num_nodes());
  const std::uint32_t sink = 2 * n;
  FlowNetwork net(2 * n + 1);
  auto blocked = [&](Node v) { return avoid_set.count(v) || seeded.count(v); };
  for (Node v = 0; v < n; ++v) {
    if (blocked(v)) continue;
    if (m_set.count(v)) {
      net.add_edge(in_node(v), sink, 1);
    } else {
      net.add_edge(in_node(v), out_node(v), v == x ? detail::kInf : 1);
    }
  }
  g.for_each_edge([&](Node u, Node v) {
    if (blocked(u) || blocked(v)) return;
    const bool u_target = m_set.count(u) != 0;
    const bool v_target = m_set.count(v) != 0;
    if (u_target && v_target) return;
    if (!u_target) net.add_edge(out_node(u), in_node(v), 1);
    if (!v_target) net.add_edge(out_node(v), in_node(u), 1);
  });
  const std::int64_t flow = net.max_flow(out_node(x), sink);
  for (std::int64_t i = 0; i < flow; ++i) {
    paths.push_back(detail::extract_unit_path(net, x, sink));
  }
  return paths;
}

}  // namespace ftr::flow_oracle
