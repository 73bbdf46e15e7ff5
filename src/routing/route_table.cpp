#include "routing/route_table.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace ftr {

namespace {

// True if the arena-stored route equals `p` (reversed when `rev`); `p` is a
// Path or a PathView.
template <typename P>
bool equals_path(PathView stored, const P& p, bool rev) {
  if (stored.size() != p.size()) return false;
  const std::size_t len = p.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (stored[i] != (rev ? p[len - 1 - i] : p[i])) return false;
  }
  return true;
}

}  // namespace

// --- RoutingTable ------------------------------------------------------------

RoutingTable::RoutingTable(std::size_t num_nodes, RoutingMode mode,
                           std::size_t cap, FlatArray<Node> arena,
                           FlatArray<std::uint32_t> route_off)
    : n_(num_nodes),
      mode_(mode),
      cap_(cap),
      arena_(std::move(arena)),
      route_off_(std::move(route_off)) {
  const auto routes = static_cast<std::uint32_t>(num_routes());
  const auto src_of = [this](std::uint32_t r) { return arena_[route_off_[r]]; };
  const auto dst_of = [this](std::uint32_t r) {
    return arena_[route_off_[r + 1] - 1];
  };
  // Route r opens a pair unless it continues route r - 1's pair below the
  // cap. Two passes, so that every derived array is sized exactly.
  const auto opens_pair = [&](std::uint32_t r, std::uint32_t run) {
    return r == 0 || src_of(r) != src_of(r - 1) ||
           dst_of(r) != dst_of(r - 1) || (cap_ != 0 && run >= cap_);
  };
  std::size_t num_pairs = 0;
  for (std::uint32_t r = 0, run = 0; r < routes; ++r, ++run) {
    if (opens_pair(r, run)) {
      ++num_pairs;
      run = 0;
    }
  }
  std::vector<Node> src(num_pairs);
  std::vector<Node> dst(num_pairs);
  std::vector<std::uint32_t> pair_off(num_pairs + 1);
  std::vector<std::uint32_t> src_off(n_ + 1, 0);
  for (std::uint32_t r = 0, run = 0, p = 0; r < routes; ++r, ++run) {
    if (!opens_pair(r, run)) continue;
    src[p] = src_of(r);
    dst[p] = dst_of(r);
    pair_off[p] = r;
    ++src_off[src[p] + 1];
    ++p;
    run = 0;
  }
  pair_off[num_pairs] = routes;
  // Pairs by source (counting sort), each source's by ascending target.
  for (std::size_t i = 1; i <= n_; ++i) src_off[i] += src_off[i - 1];
  std::vector<std::uint32_t> src_ids(num_pairs);
  std::vector<std::uint32_t> cursor(src_off.begin(), src_off.end() - 1);
  for (std::uint32_t p = 0; p < num_pairs; ++p) src_ids[cursor[src[p]]++] = p;
  for (std::size_t x = 0; x < n_; ++x) {
    const auto first = src_ids.begin() + src_off[x];
    const auto last = src_ids.begin() + src_off[x + 1];
    std::sort(first, last,
              [&dst](std::uint32_t a, std::uint32_t b) { return dst[a] < dst[b]; });
    const auto twice = std::adjacent_find(
        first, last,
        [&dst](std::uint32_t a, std::uint32_t b) { return dst[a] == dst[b]; });
    FTR_EXPECTS_MSG(twice == last, "ordered pair " << x << " -> " << dst[*twice]
                                                   << " listed twice");
  }
  pair_src_ = FlatArray<Node>(std::move(src));
  pair_dst_ = FlatArray<Node>(std::move(dst));
  pair_route_off_ = FlatArray<std::uint32_t>(std::move(pair_off));
  src_pair_off_ = FlatArray<std::uint32_t>(std::move(src_off));
  src_pair_ids_ = FlatArray<std::uint32_t>(std::move(src_ids));
}

std::uint32_t RoutingTable::find_pair(Node x, Node y) const {
  FTR_EXPECTS(x < n_ && y < n_);
  const std::uint32_t* first = src_pair_ids_.data() + src_pair_off_[x];
  const std::uint32_t* last = src_pair_ids_.data() + src_pair_off_[x + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, y,
      [this](std::uint32_t p, Node target) { return pair_dst_[p] < target; });
  return it != last && pair_dst_[*it] == y ? *it : kNoPair;
}

PathView RoutingTable::route(Node x, Node y) const {
  const std::uint32_t p = find_pair(x, y);
  return p == kNoPair ? PathView{} : view_of(pair_route_off_[p]);
}

std::vector<PathView> RoutingTable::routes(Node x, Node y) const {
  std::vector<PathView> out;
  const std::uint32_t p = find_pair(x, y);
  if (p == kNoPair) return out;
  for (std::uint32_t r = pair_route_off_[p]; r < pair_route_off_[p + 1]; ++r) {
    out.push_back(view_of(r));
  }
  return out;
}

void RoutingTable::for_each(
    const std::function<void(Node, Node, const Path&)>& fn) const {
  for_each_view(
      [&fn](Node x, Node y, PathView path) { fn(x, y, path.to_path()); });
}

void RoutingTable::for_each_view(
    const std::function<void(Node, Node, PathView)>& fn) const {
  for (std::uint32_t p = 0; p < num_pairs(); ++p) {
    for (std::uint32_t r = pair_route_off_[p]; r < pair_route_off_[p + 1];
         ++r) {
      fn(pair_src_[p], pair_dst_[p], view_of(r));
    }
  }
}

void RoutingTable::validate(const Graph& g) const {
  FTR_EXPECTS(g.num_nodes() == n_);
  for (std::uint32_t p = 0; p < num_pairs(); ++p) {
    const Node x = pair_src_[p];
    const Node y = pair_dst_[p];
    const std::uint32_t held = pair_route_off_[p + 1] - pair_route_off_[p];
    FTR_ASSERT_MSG(cap_ == 0 || held <= cap_,
                   "pair (" << x << "," << y << ") holds " << held
                            << " routes, over the cap of " << cap_);
    for (std::uint32_t r = pair_route_off_[p]; r < pair_route_off_[p + 1];
         ++r) {
      const PathView path = view_of(r);
      FTR_ASSERT_MSG(g.is_simple_path(path),
                     "route " << path_to_string(path) << " is not a simple path");
      if (mode_ != RoutingMode::kBidirectional) continue;
      const std::uint32_t q = find_pair(y, x);
      FTR_ASSERT_MSG(q != kNoPair, "bidirectional table missing reverse of ("
                                       << x << "," << y << ")");
      bool mirrored = false;
      for (std::uint32_t s = pair_route_off_[q];
           s < pair_route_off_[q + 1] && !mirrored; ++s) {
        mirrored = equals_path(view_of(s), path, /*rev=*/true);
      }
      FTR_ASSERT_MSG(mirrored, "bidirectional routes for ("
                                   << x << "," << y << ") are not mirrored");
    }
  }
}

RoutingTable::Stats RoutingTable::stats() const {
  Stats s;
  s.ordered_pairs = num_pairs();
  std::size_t total_hops = 0;
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    const std::size_t hops = view_of(r).hops();
    s.max_hops = std::max(s.max_hops, hops);
    total_hops += hops;
  }
  s.avg_hops = num_routes() == 0 ? 0.0
                                 : static_cast<double>(total_hops) /
                                       static_cast<double>(num_routes());
  return s;
}

// --- RouteTableBuilder -------------------------------------------------------

RouteTableBuilder::RouteTableBuilder(std::size_t num_nodes, RoutingMode mode,
                                     std::size_t max_routes_per_pair)
    : n_(num_nodes), mode_(mode), cap_(max_routes_per_pair) {
  FTR_EXPECTS(num_nodes >= 2);
}

std::uint32_t RouteTableBuilder::find_pair(Node x, Node y) const {
  const auto it = pair_of_.find(key(x, y));
  return it == pair_of_.end() ? kNone : it->second;
}

bool RouteTableBuilder::has_route(Node x, Node y) const {
  FTR_EXPECTS(x < n_ && y < n_);
  return find_pair(x, y) != kNone;
}

RouteTableBuilder::Fit RouteTableBuilder::fit(Node x, Node y, const Path& p,
                                              bool rev) const {
  const std::uint32_t pid = find_pair(x, y);
  if (pid == kNone) return Fit::kNewPair;
  std::size_t held = 0;
  for (std::uint32_t r = pair_first_[pid]; r != kNone; r = route_next_[r]) {
    if (equals_path(view_of(r), p, rev)) return Fit::kHeld;
    ++held;
  }
  return cap_ != 0 && held >= cap_ ? Fit::kFull : Fit::kRoom;
}

void RouteTableBuilder::append(Node x, Node y, const Path& p, bool rev) {
  if (rev) {
    arena_.insert(arena_.end(), p.rbegin(), p.rend());
  } else {
    arena_.insert(arena_.end(), p.begin(), p.end());
  }
  const auto r = static_cast<std::uint32_t>(num_routes());
  route_off_.push_back(static_cast<std::uint32_t>(arena_.size()));
  route_next_.push_back(kNone);
  const auto [it, fresh] = pair_of_.try_emplace(
      key(x, y), static_cast<std::uint32_t>(pair_first_.size()));
  if (fresh) {
    pair_first_.push_back(r);
    return;
  }
  std::uint32_t last = pair_first_[it->second];
  while (route_next_[last] != kNone) last = route_next_[last];
  route_next_[last] = r;
}

void RouteTableBuilder::check_endpoints(const Path& path) const {
  FTR_EXPECTS_MSG(path.size() >= 2, "a route needs at least two nodes");
  FTR_EXPECTS(path.front() < n_ && path.back() < n_ &&
              path.front() != path.back());
}

void RouteTableBuilder::set_route(const Path& path) {
  check_endpoints(path);
  auto add = [&](Node x, Node y, bool rev) {
    const Fit f = fit(x, y, path, rev);
    if (f == Fit::kHeld) return;
    FTR_EXPECTS_MSG(f != Fit::kFull,
                    "conflicting route for pair ("
                        << x << "," << y << "): it holds its cap of " << cap_
                        << " route(s), first "
                        << path_to_string(view_of(pair_first_[find_pair(x, y)]))
                        << ", new "
                        << (rev ? path_to_string(Path(path.rbegin(),
                                                      path.rend()))
                                : path_to_string(path)));
    append(x, y, path, rev);
  };
  add(path.front(), path.back(), /*rev=*/false);
  if (mode_ == RoutingMode::kBidirectional) {
    add(path.back(), path.front(), /*rev=*/true);
  }
}

bool RouteTableBuilder::try_set_route(const Path& path) {
  check_endpoints(path);
  const Node x = path.front();
  const Node y = path.back();
  const bool bidirectional = mode_ == RoutingMode::kBidirectional;
  const Fit fwd = fit(x, y, path, /*rev=*/false);
  const Fit bwd = bidirectional ? fit(y, x, path, /*rev=*/true) : Fit::kHeld;
  if (fwd == Fit::kFull || bwd == Fit::kFull) return false;
  if (fwd != Fit::kHeld) append(x, y, path, /*rev=*/false);
  if (bwd != Fit::kHeld) append(y, x, path, /*rev=*/true);
  return true;
}

void RouteTableBuilder::for_each_view(
    const std::function<void(Node, Node, PathView)>& fn) const {
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    const PathView path = view_of(r);
    fn(path.front(), path.back(), path);
  }
}

RoutingTable RouteTableBuilder::build() && {
  pair_of_ = {};  // free the lookups before the table's arrays are made
  if (pair_first_.size() != num_routes()) {
    // Regroup pair-major: pairs in order of their first route, each pair's
    // routes along its chain (insertion order).
    std::vector<Node> arena;
    arena.reserve(arena_.size());
    std::vector<std::uint32_t> off{0};
    off.reserve(route_off_.size());
    for (const std::uint32_t first : pair_first_) {
      for (std::uint32_t r = first; r != kNone; r = route_next_[r]) {
        const PathView path = view_of(r);
        arena.insert(arena.end(), path.begin(), path.end());
        off.push_back(static_cast<std::uint32_t>(arena.size()));
      }
    }
    arena_ = std::move(arena);
    route_off_ = std::move(off);
  }
  return RoutingTable(n_, mode_, cap_, FlatArray<Node>(std::move(arena_)),
                      FlatArray<std::uint32_t>(std::move(route_off_)));
}

void install_edge_routes(RouteTableBuilder& table, const Graph& g) {
  g.for_each_edge([&table](Node u, Node v) {
    table.set_route(Path{u, v});
    if (table.mode() == RoutingMode::kUnidirectional) {
      table.set_route(Path{v, u});
    }
  });
}

}  // namespace ftr
