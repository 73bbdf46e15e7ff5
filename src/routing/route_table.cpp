#include "routing/route_table.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "routing/pair_hash.hpp"

namespace ftr {

using detail::equals_path;
using detail::hash_pair_key;

RoutingTable::RoutingTable(std::size_t num_nodes, RoutingMode mode)
    : n_(num_nodes), mode_(mode) {
  FTR_EXPECTS(num_nodes >= 2);
}

std::uint32_t RoutingTable::find(Node x, Node y) const {
  if (slots_.empty()) return kNoRoute;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_pair_key(key(x, y)) & mask;
  for (std::uint32_t r; (r = slots_[i]) != kNoRoute; i = (i + 1) & mask) {
    if (pair_src_[r] == x && pair_dst_[r] == y) return r;
  }
  return kNoRoute;
}

void RoutingTable::grow_slots() {
  const std::size_t cap = std::max<std::size_t>(16, slots_.size() * 2);
  std::vector<std::uint32_t> slots(cap, kNoRoute);
  const std::size_t mask = cap - 1;
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    std::size_t i = hash_pair_key(key(pair_src_[r], pair_dst_[r])) & mask;
    while (slots[i] != kNoRoute) i = (i + 1) & mask;
    slots[i] = r;
  }
  slots_ = FlatArray<std::uint32_t>(std::move(slots));
}

void RoutingTable::assign(Node x, Node y, const Path& p, bool rev) {
  const std::uint32_t found = find(x, y);
  if (found != kNoRoute) {
    FTR_EXPECTS_MSG(equals_path(view_of(found), p, rev),
                    "conflicting route for pair ("
                        << x << "," << y << "): existing "
                        << path_to_string(view_of(found)) << " vs new "
                        << (rev ? path_to_string(Path(p.rbegin(), p.rend()))
                                : path_to_string(p)));
    return;
  }
  if (rev) {
    arena_.append(p.rbegin(), p.rend());
  } else {
    arena_.append(p.begin(), p.end());
  }
  if (route_off_.empty()) route_off_.push_back(0);  // a moved-from table
  route_off_.push_back(static_cast<std::uint32_t>(arena_.size()));
  pair_src_.push_back(x);
  pair_dst_.push_back(y);
  // Keep load factor <= 1/2.
  if (num_routes() * 2 > slots_.size()) {
    grow_slots();
    return;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_pair_key(key(x, y)) & mask;
  while (slots_[i] != kNoRoute) i = (i + 1) & mask;
  slots_.set(i, static_cast<std::uint32_t>(num_routes() - 1));
}

void RoutingTable::set_route(const Path& path) {
  FTR_EXPECTS_MSG(path.size() >= 2, "a route needs at least two nodes");
  const Node x = path.front();
  const Node y = path.back();
  FTR_EXPECTS(x < n_ && y < n_ && x != y);

  assign(x, y, path, /*rev=*/false);
  if (mode_ == RoutingMode::kBidirectional) assign(y, x, path, /*rev=*/true);
}

bool RoutingTable::set_route_if_absent(const Path& path) {
  FTR_EXPECTS_MSG(path.size() >= 2, "a route needs at least two nodes");
  const Node x = path.front();
  const Node y = path.back();
  FTR_EXPECTS(x < n_ && y < n_ && x != y);
  if (find(x, y) != kNoRoute) return false;
  if (mode_ == RoutingMode::kBidirectional && find(y, x) != kNoRoute)
    return false;
  set_route(path);
  return true;
}

PathView RoutingTable::route(Node x, Node y) const {
  FTR_EXPECTS(x < n_ && y < n_);
  const std::uint32_t r = find(x, y);
  return r == kNoRoute ? PathView{} : view_of(r);
}

void RoutingTable::for_each(
    const std::function<void(Node, Node, const Path&)>& fn) const {
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    fn(pair_src_[r], pair_dst_[r], view_of(r).to_path());
  }
}

void RoutingTable::for_each_view(
    const std::function<void(Node, Node, PathView)>& fn) const {
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    fn(pair_src_[r], pair_dst_[r], view_of(r));
  }
}

void RoutingTable::validate(const Graph& g) const {
  FTR_EXPECTS(g.num_nodes() == n_);
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    const Node x = pair_src_[r];
    const Node y = pair_dst_[r];
    const PathView path = view_of(r);
    FTR_ASSERT_MSG(path.front() == x && path.back() == y,
                   "route keyed (" << x << "," << y << ") holds path "
                                   << path_to_string(path));
    FTR_ASSERT_MSG(g.is_simple_path(path),
                   "route " << path_to_string(path) << " is not a simple path");
    if (mode_ == RoutingMode::kBidirectional) {
      const PathView back = route(y, x);
      FTR_ASSERT_MSG(!back.null(), "bidirectional table missing reverse of ("
                                       << x << "," << y << ")");
      bool mirrored = back.size() == path.size();
      for (std::size_t i = 0; mirrored && i < path.size(); ++i) {
        mirrored = back[i] == path[path.size() - 1 - i];
      }
      FTR_ASSERT_MSG(mirrored, "bidirectional routes for ("
                                   << x << "," << y << ") are not mirrored");
    }
  }
}

RoutingTable::Stats RoutingTable::stats() const {
  Stats s;
  s.ordered_pairs = num_routes();
  std::size_t total_hops = 0;
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    const std::size_t hops = view_of(r).hops();
    s.max_hops = std::max(s.max_hops, hops);
    total_hops += hops;
  }
  s.avg_hops = s.ordered_pairs == 0
                   ? 0.0
                   : static_cast<double>(total_hops) /
                         static_cast<double>(s.ordered_pairs);
  return s;
}

void install_edge_routes(RoutingTable& table, const Graph& g) {
  g.for_each_edge([&table](Node u, Node v) {
    table.set_route(Path{u, v});
    if (table.mode() == RoutingMode::kUnidirectional) {
      table.set_route(Path{v, u});
    }
  });
}

}  // namespace ftr
