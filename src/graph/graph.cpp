#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"
#include "graph/node_marks.hpp"

namespace ftr {

Graph::Graph(std::size_t n)
    : offsets_(std::vector<std::uint32_t>(n + 1, 0)) {}

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<Node> targets,
             std::size_t num_edges)
    : offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      num_edges_(num_edges) {}

bool Graph::has_edge(Node u, Node v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

std::size_t Graph::degree(Node u) const {
  FTR_EXPECTS(u < num_nodes());
  return offsets_[u + 1] - offsets_[u];
}

std::span<const Node> Graph::neighbors(Node u) const {
  FTR_EXPECTS(u < num_nodes());
  return {targets_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::min_degree() const {
  const std::size_t n = num_nodes();
  std::size_t best = n == 0 ? 0 : offsets_[1];
  for (Node u = 0; u < n; ++u) {
    best = std::min<std::size_t>(best, offsets_[u + 1] - offsets_[u]);
  }
  return best;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (Node u = 0; u < num_nodes(); ++u) {
    best = std::max<std::size_t>(best, offsets_[u + 1] - offsets_[u]);
  }
  return best;
}

std::vector<std::pair<Node, Node>> Graph::edges() const {
  std::vector<std::pair<Node, Node>> out;
  out.reserve(num_edges_);
  for_each_edge([&out](Node u, Node v) { out.emplace_back(u, v); });
  return out;
}

Graph Graph::without_nodes(const std::vector<Node>& removed) const {
  const std::size_t n = num_nodes();
  std::vector<char> gone(n, 0);
  for (Node u : removed) {
    FTR_EXPECTS(u < n);
    gone[u] = 1;
  }
  // Build the reduced CSR directly: count surviving row lengths, prefix-sum,
  // then copy the surviving neighbors (rows stay sorted by construction).
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (Node u = 0; u < n; ++u) {
    std::uint32_t deg = 0;
    if (!gone[u]) {
      for (Node v : neighbors(u)) deg += !gone[v];
    }
    offsets[u + 1] = offsets[u] + deg;
  }
  std::vector<Node> targets(offsets[n]);
  for (Node u = 0; u < n; ++u) {
    if (gone[u]) continue;
    std::uint32_t cursor = offsets[u];
    for (Node v : neighbors(u)) {
      if (!gone[v]) targets[cursor++] = v;
    }
  }
  return Graph(std::move(offsets), std::move(targets), offsets[n] / 2);
}

bool Graph::is_simple_path(PathView path) const {
  if (path.null() || path.empty()) return false;
  constexpr std::uint8_t kSeen = 1;
  thread_local NodeMarks marks;
  marks.begin(num_nodes());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] >= num_nodes()) return false;
    if (marks.has(path[i], kSeen)) return false;
    marks.set(path[i], kSeen);
    if (i > 0 && !has_edge(path[i - 1], path[i])) return false;
  }
  return true;
}

bool Graph::is_simple_path(const Path& path) const {
  return is_simple_path(PathView(path.data(), path.size()));
}

GraphBuilder::GraphBuilder(std::size_t n) : adj_(n) {}

GraphBuilder::GraphBuilder(const Graph& g)
    : adj_(g.num_nodes()), num_edges_(g.num_edges()) {
  for (Node u = 0; u < g.num_nodes(); ++u) {
    const auto row = g.neighbors(u);
    adj_[u].assign(row.begin(), row.end());
  }
}

bool GraphBuilder::add_edge(Node u, Node v) {
  FTR_EXPECTS_MSG(u < adj_.size() && v < adj_.size(),
                  "edge (" << u << "," << v << ") out of range n=" << adj_.size());
  FTR_EXPECTS_MSG(u != v, "self-loop at node " << u);
  auto& nu = adj_[u];
  const auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return false;
  nu.insert(it, v);
  auto& nv = adj_[v];
  nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
  ++num_edges_;
  return true;
}

bool GraphBuilder::has_edge(Node u, Node v) const {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  const auto& nu = adj_[u];
  return std::binary_search(nu.begin(), nu.end(), v);
}

Graph GraphBuilder::build() const {
  const std::size_t n = adj_.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (Node u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + static_cast<std::uint32_t>(adj_[u].size());
  }
  std::vector<Node> targets;
  targets.reserve(offsets[n]);
  for (const auto& row : adj_) targets.insert(targets.end(), row.begin(), row.end());
  return Graph(std::move(offsets), std::move(targets), num_edges_);
}

std::string path_to_string(PathView path) {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) os << "->";
    os << path[i];
  }
  return os.str();
}

std::string path_to_string(const Path& path) {
  return path_to_string(PathView(path.data(), path.size()));
}

}  // namespace ftr
