#include "graph/maxflow.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"

namespace ftr {

namespace {
constexpr std::uint32_t kNoLevel = std::numeric_limits<std::uint32_t>::max();
// Node and edge ids are 32-bit in the CSR arrays.
constexpr std::size_t kMaxIds = std::numeric_limits<std::uint32_t>::max();
}  // namespace

void FlowNetwork::reset(std::size_t num_nodes) {
  FTR_EXPECTS(num_nodes < kMaxIds);
  num_nodes_ = num_nodes;
  to_.clear();
  cap_.clear();
  init_.clear();
  out_edges_stale_ = true;
}

std::size_t FlowNetwork::add_edge(std::uint32_t u, std::uint32_t v,
                                  std::int64_t capacity) {
  FTR_EXPECTS(u < num_nodes_ && v < num_nodes_);
  FTR_EXPECTS(capacity >= 0);
  FTR_EXPECTS(to_.size() + 2 < kMaxIds);
  const std::size_t id = to_.size();
  to_.push_back(v);
  cap_.push_back(capacity);
  init_.push_back(capacity);
  to_.push_back(u);
  cap_.push_back(0);
  init_.push_back(0);
  out_edges_stale_ = true;
  return id;
}

void FlowNetwork::build_out_edges() {
  // Counting sort of the edge ids by tail; visiting ids in increasing order
  // keeps each node's list in add_edge order.
  first_.assign(num_nodes_ + 1, 0);
  const auto num_edges = static_cast<std::uint32_t>(to_.size());
  for (std::uint32_t id = 0; id < num_edges; ++id) ++first_[to_[id ^ 1] + 1];
  for (std::size_t u = 0; u < num_nodes_; ++u) first_[u + 1] += first_[u];
  edges_.resize(num_edges);
  iter_.assign(first_.begin(), first_.end() - 1);
  for (std::uint32_t id = 0; id < num_edges; ++id) {
    edges_[iter_[to_[id ^ 1]]++] = id;
  }
  out_edges_stale_ = false;
}

std::span<const std::uint32_t> FlowNetwork::out_edges(std::uint32_t u) {
  FTR_EXPECTS(u < num_nodes_);
  if (out_edges_stale_) build_out_edges();
  return {edges_.data() + first_[u], edges_.data() + first_[u + 1]};
}

bool FlowNetwork::bfs_levels(std::uint32_t s, std::uint32_t t) {
  level_.assign(num_nodes_, kNoLevel);
  queue_.resize(num_nodes_);
  std::size_t head = 0;
  std::size_t tail = 0;
  level_[s] = 0;
  queue_[tail++] = s;
  // The search ends as soon as the sink is labeled (see the header: every
  // node below the sink's level already has its level, and nothing else
  // the search would label lies on a shortest augmenting path).
  while (head < tail) {
    const std::uint32_t u = queue_[head++];
    for (std::uint32_t i = first_[u]; i < first_[u + 1]; ++i) {
      const std::uint32_t id = edges_[i];
      const std::uint32_t v = to_[id];
      if (cap_[id] > 0 && level_[v] == kNoLevel) {
        level_[v] = level_[u] + 1;
        if (v == t) return true;
        queue_[tail++] = v;
      }
    }
  }
  return false;
}

std::int64_t FlowNetwork::dfs_augment(std::uint32_t u, std::uint32_t t,
                                      std::int64_t pushed) {
  if (u == t) return pushed;
  for (std::uint32_t& i = iter_[u]; i < first_[u + 1]; ++i) {
    const std::uint32_t id = edges_[i];
    const std::uint32_t v = to_[id];
    if (cap_[id] > 0 && level_[v] == level_[u] + 1) {
      const std::int64_t got =
          dfs_augment(v, t, std::min(pushed, cap_[id]));
      if (got > 0) {
        cap_[id] -= got;
        cap_[id ^ 1] += got;
        return got;
      }
    }
  }
  return 0;
}

std::int64_t FlowNetwork::max_flow(std::uint32_t s, std::uint32_t t,
                                   std::int64_t limit) {
  FTR_EXPECTS(s < num_nodes_ && t < num_nodes_);
  FTR_EXPECTS(s != t);
  if (out_edges_stale_) build_out_edges();
  std::int64_t flow = 0;
  while (flow < limit && bfs_levels(s, t)) {
    iter_.assign(first_.begin(), first_.end() - 1);
    while (flow < limit) {
      const std::int64_t got = dfs_augment(s, t, limit - flow);
      if (got == 0) break;
      flow += got;
    }
  }
  return flow;
}

std::int64_t FlowNetwork::flow_on(std::size_t id) const {
  FTR_EXPECTS(id < cap_.size());
  return init_[id] - cap_[id];
}

std::int64_t FlowNetwork::residual(std::size_t id) const {
  FTR_EXPECTS(id < cap_.size());
  return cap_[id];
}

std::vector<char> FlowNetwork::residual_reachable(std::uint32_t s) {
  FTR_EXPECTS(s < num_nodes_);
  if (out_edges_stale_) build_out_edges();
  bfs_levels(s, s);  // s is never relabeled, so the search runs to the end
  std::vector<char> seen(num_nodes_);
  for (std::size_t u = 0; u < num_nodes_; ++u) seen[u] = level_[u] != kNoLevel;
  return seen;
}

void FlowNetwork::consume_unit(std::size_t id) {
  FTR_EXPECTS(id < cap_.size());
  FTR_EXPECTS_MSG(flow_on(id) >= 1, "edge " << id << " carries no flow");
  cap_[id] += 1;
  cap_[id ^ 1] -= 1;
}

}  // namespace ftr
