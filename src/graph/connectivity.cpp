#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/bfs.hpp"
#include "graph/maxflow.hpp"
#include "graph/node_marks.hpp"

namespace ftr {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

// Vertex-split network layout: in(v) = 2v, out(v) = 2v + 1.
std::uint32_t in_node(Node v) { return 2 * v; }
std::uint32_t out_node(Node v) { return 2 * v + 1; }

// Every Menger query runs on this thread's one network: reset() keeps its
// buffers, so a warm thread computes flow after flow without allocating.
FlowNetwork& reset_network(std::size_t num_nodes) {
  thread_local FlowNetwork net;
  net.reset(num_nodes);
  return net;
}

// Builds the standard vertex-split network for internally-disjoint x-y
// paths. x and y get infinite self-capacity; every other node capacity 1.
// Edge arcs carry infinite capacity so that every minimum cut crosses only
// split arcs — that is what makes the residual cut a *vertex* cut. (Flow on
// an edge arc still never exceeds 1: the adjacent split arcs bottleneck it.)
// If skip_direct_edge, the {x,y} edge (if any) is omitted so the caller can
// count the direct edge separately.
FlowNetwork& build_split_network(const Graph& g, Node x, Node y,
                                 bool skip_direct_edge) {
  FlowNetwork& net = reset_network(2 * g.num_nodes());
  for (Node v = 0; v < g.num_nodes(); ++v) {
    const std::int64_t cap = (v == x || v == y) ? kInf : 1;
    net.add_edge(in_node(v), out_node(v), cap);
  }
  g.for_each_edge([&](Node u, Node v) {
    if (skip_direct_edge && ((u == x && v == y) || (u == y && v == x))) return;
    net.add_edge(out_node(u), in_node(v), kInf);
    net.add_edge(out_node(v), in_node(u), kInf);
  });
  return net;
}

// Internally node-disjoint x-y paths other than the direct edge, up to
// `limit` (exact below it; see max_flow on why callers taking a minimum may
// pass the best value so far).
std::uint32_t split_flow(const Graph& g, Node x, Node y, std::int64_t limit) {
  FlowNetwork& net = build_split_network(g, x, y, /*skip_direct_edge=*/true);
  return static_cast<std::uint32_t>(
      net.max_flow(out_node(x), in_node(y), limit));
}

bool is_complete(const Graph& g) {
  const std::size_t n = g.num_nodes();
  return g.num_edges() == n * (n - 1) / 2;
}

// Walks one unit of s-t flow out of the network, consuming it, and returns
// the sequence of original graph nodes visited. `sink` is in(y) for pair
// flows or the dedicated super-sink for set flows.
Path extract_unit_path(FlowNetwork& net, Node x, std::uint32_t sink) {
  Path path{x};
  std::uint32_t cur = out_node(x);
  while (cur != sink) {
    bool advanced = false;
    for (const std::uint32_t id : net.out_edges(cur)) {
      if ((id & 1) != 0) continue;  // reverse edges never carry forward flow
      if (net.flow_on(id) < 1) continue;
      net.consume_unit(id);
      cur = net.edge_to(id);
      advanced = true;
      break;
    }
    FTR_ASSERT_MSG(advanced, "flow decomposition stalled at network node " << cur);
    if (cur == sink) break;
    // cur is now in(v) for some graph node v: record it and hop the split
    // edge in(v) -> out(v) unless in(v) itself is the sink.
    const Node v = static_cast<Node>(cur / 2);
    path.push_back(v);
    bool hopped = false;
    for (const std::uint32_t id : net.out_edges(cur)) {
      if ((id & 1) != 0) continue;
      const std::uint32_t nxt = net.edge_to(id);
      if (net.flow_on(id) >= 1) {
        net.consume_unit(id);
        cur = nxt;
        hopped = true;
        break;
      }
    }
    FTR_ASSERT_MSG(hopped, "unit flow vanished inside node " << v);
    if (cur == sink) break;
  }
  return path;
}

}  // namespace

std::uint32_t local_node_connectivity(const Graph& g, Node x, Node y) {
  FTR_EXPECTS(g.valid_node(x) && g.valid_node(y));
  FTR_EXPECTS(x != y);
  const bool direct = g.has_edge(x, y);
  return split_flow(g, x, y, FlowNetwork::kNoLimit) + (direct ? 1 : 0);
}

std::uint32_t node_connectivity(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n <= 1) return 0;
  if (is_complete(g)) return static_cast<std::uint32_t>(n - 1);
  if (!is_connected(g)) return 0;

  // Esfahanian–Hakimi: with v a minimum-degree vertex, kappa is attained by
  // a flow between v and a non-neighbor, or between two non-adjacent
  // neighbors of v. Every pair is non-adjacent, so its local connectivity
  // is its split flow, and no flow needs to count past the best so far.
  Node v = 0;
  for (Node u = 1; u < n; ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  auto best = static_cast<std::uint32_t>(g.degree(v));
  for (Node u = 0; u < n; ++u) {
    if (u == v || g.has_edge(u, v)) continue;
    best = std::min(best, split_flow(g, v, u, best));
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) continue;
      best = std::min(best, split_flow(g, nbrs[i], nbrs[j], best));
    }
  }
  return best;
}

std::vector<Node> min_vertex_cut_between(const Graph& g, Node x, Node y) {
  FTR_EXPECTS(g.valid_node(x) && g.valid_node(y));
  FTR_EXPECTS(x != y);
  FTR_EXPECTS_MSG(!g.has_edge(x, y),
                  "no vertex cut separates adjacent nodes " << x << "," << y);
  FlowNetwork& net = build_split_network(g, x, y, /*skip_direct_edge=*/false);
  net.max_flow(out_node(x), in_node(y));
  const auto reach = net.residual_reachable(out_node(x));
  std::vector<Node> cut;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (v == x || v == y) continue;
    // A node is in the cut iff the min cut crosses its split edge.
    if (reach[in_node(v)] && !reach[out_node(v)]) cut.push_back(v);
  }
  return cut;
}

std::vector<Node> min_vertex_cut(const Graph& g) {
  const std::size_t n = g.num_nodes();
  FTR_EXPECTS_MSG(n >= 2, "cut undefined on trivial graph");
  FTR_EXPECTS_MSG(!is_complete(g), "complete graphs have no vertex cut");
  FTR_EXPECTS_MSG(is_connected(g), "graph must be connected");

  Node v = 0;
  for (Node u = 1; u < n; ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  std::uint32_t best = kUnreachable;
  std::pair<Node, Node> argmin{0, 0};
  // Every pair is non-adjacent; a flow that reaches `best` cannot win.
  auto consider = [&](Node a, Node b) {
    const std::uint32_t k = split_flow(g, a, b, best);
    if (k < best) {
      best = k;
      argmin = {a, b};
    }
  };
  for (Node u = 0; u < n; ++u) {
    if (u == v || g.has_edge(u, v)) continue;
    consider(v, u);
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) consider(nbrs[i], nbrs[j]);
    }
  }
  FTR_ASSERT_MSG(best != kUnreachable, "no non-adjacent pair in non-complete graph");
  auto cut = min_vertex_cut_between(g, argmin.first, argmin.second);
  FTR_ENSURES(cut.size() == best);
  FTR_ENSURES(is_separating_set(g, cut));
  return cut;
}

std::vector<Path> disjoint_paths(const Graph& g, Node x, Node y,
                                 std::optional<std::uint32_t> want) {
  FTR_EXPECTS(g.valid_node(x) && g.valid_node(y));
  FTR_EXPECTS(x != y);
  std::vector<Path> paths;
  std::uint32_t remaining = want.value_or(kUnreachable);
  if (remaining == 0) return paths;
  if (g.has_edge(x, y)) {
    paths.push_back(Path{x, y});
    --remaining;
  }
  if (remaining == 0) return paths;
  FlowNetwork& net = build_split_network(g, x, y, /*skip_direct_edge=*/true);
  const std::int64_t flow =
      net.max_flow(out_node(x), in_node(y),
                   remaining == kUnreachable ? FlowNetwork::kNoLimit
                                             : static_cast<std::int64_t>(remaining));
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = extract_unit_path(net, x, in_node(y));
    p.push_back(y);
    FTR_ASSERT(g.is_simple_path(p));
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<Path> disjoint_paths_to_set(const Graph& g, Node x,
                                        const std::vector<Node>& target_set,
                                        const std::vector<Node>& avoid) {
  FTR_EXPECTS(g.valid_node(x));
  constexpr std::uint8_t kTarget = 1, kAvoid = 2, kSeeded = 4;
  thread_local NodeMarks marks;
  marks.begin(g.num_nodes());
  for (Node m : target_set) {
    FTR_EXPECTS(g.valid_node(m));
    marks.set(m, kTarget);
  }
  for (Node v : avoid) {
    FTR_EXPECTS(g.valid_node(v));
    marks.set(v, kAvoid);
  }
  FTR_EXPECTS_MSG(!marks.has(x, kTarget),
                  "source " << x << " lies inside target set");
  FTR_EXPECTS_MSG(!marks.has(x, kAvoid),
                  "source " << x << " is in the avoid set");

  std::vector<Path> paths;

  // The direct-edge rule of the paper's tree routings: whenever x has an
  // edge into the target set, the route to that target is the edge itself.
  // Including all such edges first is never suboptimal (each uses only the
  // target node, which can carry at most one path anyway).
  for (Node m : g.neighbors(x)) {
    if (marks.has(m, kTarget) && !marks.has(m, kAvoid)) {
      paths.push_back(Path{x, m});
      marks.set(m, kSeeded);
    }
  }

  // Remaining targets are reached by max-flow on a network where target
  // nodes can only absorb (in(m) -> sink, no split edge), which encodes
  // "stop at the first occurrence of a node from M".
  const auto n = static_cast<std::uint32_t>(g.num_nodes());
  const std::uint32_t sink = 2 * n;
  FlowNetwork& net = reset_network(2 * n + 1);
  auto blocked = [&](Node v) { return marks.has(v, kAvoid | kSeeded); };
  for (Node v = 0; v < n; ++v) {
    if (blocked(v)) continue;
    if (marks.has(v, kTarget)) {
      net.add_edge(in_node(v), sink, 1);
    } else if (v == x) {
      net.add_edge(in_node(v), out_node(v), kInf);
    } else {
      net.add_edge(in_node(v), out_node(v), 1);
    }
  }
  g.for_each_edge([&](Node u, Node v) {
    if (blocked(u) || blocked(v)) return;
    const bool u_target = marks.has(u, kTarget);
    const bool v_target = marks.has(v, kTarget);
    if (u_target && v_target) return;  // never traversed
    if (!u_target) net.add_edge(out_node(u), in_node(v), 1);
    if (!v_target) net.add_edge(out_node(v), in_node(u), 1);
  });
  const std::int64_t flow = net.max_flow(out_node(x), sink);
  for (std::int64_t i = 0; i < flow; ++i) {
    Path p = extract_unit_path(net, x, sink);
    FTR_ASSERT_MSG(p.size() >= 2, "set path must leave the source");
    FTR_ASSERT(g.is_simple_path(p));
    FTR_ASSERT(marks.has(p.back(), kTarget));
    paths.push_back(std::move(p));
  }
  return paths;
}

bool is_separating_set(const Graph& g, const std::vector<Node>& cut) {
  const Graph reduced = g.without_nodes(cut);
  std::unordered_set<Node> cut_set(cut.begin(), cut.end());
  const auto comp = connected_components(reduced);
  std::unordered_set<std::uint32_t> comp_ids;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (!cut_set.count(v)) comp_ids.insert(comp[v]);
  }
  return comp_ids.size() >= 2;
}

}  // namespace ftr
