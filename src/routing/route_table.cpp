#include "routing/route_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/contracts.hpp"

namespace ftr {

namespace {

// splitmix64 finalizer — a solid avalanche for the dense pair keys.
std::uint64_t hash_pair_key(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ull;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
  return k ^ (k >> 31);
}

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

RoutingTable::RoutingTable(std::size_t num_nodes, RoutingMode mode,
                           std::size_t max_routes_per_pair)
    : n_(num_nodes), mode_(mode), cap_(max_routes_per_pair) {
  FTR_EXPECTS(num_nodes >= 2);
}

template <typename Visit>
void RoutingTable::probe(Node x, Node y, Visit visit) const {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_pair_key(key(x, y)) & mask;
  for (std::uint32_t r; (r = slots_[i]) != kNoRoute; i = (i + 1) & mask) {
    if (pair_src_[r] == x && pair_dst_[r] == y && !visit(r)) return;
  }
}

std::uint32_t RoutingTable::find(Node x, Node y) const {
  std::uint32_t first = kNoRoute;
  probe(x, y, [&first](std::uint32_t r) {
    first = r;
    return false;
  });
  return first;
}

RoutingTable::RoutingTable(std::size_t num_nodes, RoutingMode mode,
                           FlatArray<Node> arena,
                           FlatArray<std::uint32_t> route_off)
    : n_(num_nodes),
      mode_(mode),
      arena_(std::move(arena)),
      route_off_(std::move(route_off)) {
  std::vector<Node> src(route_off_.size() - 1);
  std::vector<Node> dst(src.size());
  for (std::size_t r = 0; r < src.size(); ++r) {
    src[r] = arena_[route_off_[r]];
    dst[r] = arena_[route_off_[r + 1] - 1];
  }
  pair_src_ = FlatArray<Node>(std::move(src));
  pair_dst_ = FlatArray<Node>(std::move(dst));
  num_pairs_ = num_routes();
  rebuild_slots();
}

void RoutingTable::rebuild_slots() {
  const std::size_t count =
      std::bit_ceil(std::max<std::size_t>(16, num_routes() * 2));
  std::vector<std::uint32_t> slots(count, kNoRoute);
  const std::size_t mask = count - 1;
  // Route-id order keeps each pair's routes in insertion order on its run.
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    std::size_t i = hash_pair_key(key(pair_src_[r], pair_dst_[r])) & mask;
    while (slots[i] != kNoRoute) i = (i + 1) & mask;
    slots[i] = r;
  }
  slots_ = FlatArray<std::uint32_t>(std::move(slots));
}

RoutingTable::Fit RoutingTable::fit(Node x, Node y, const Path& p,
                                    bool rev) const {
  std::size_t held = 0;
  bool same = false;
  probe(x, y, [&](std::uint32_t r) {
    ++held;
    same = equals_path(view_of(r), p, rev);
    return !same;
  });
  if (same) return Fit::kHeld;
  if (held == 0) return Fit::kNewPair;
  return cap_ != 0 && held >= cap_ ? Fit::kFull : Fit::kRoom;
}

void RoutingTable::append(Node x, Node y, const Path& p, bool rev,
                          bool new_pair) {
  if (rev) {
    arena_.append(p.rbegin(), p.rend());
  } else {
    arena_.append(p.begin(), p.end());
  }
  if (route_off_.empty()) {  // a moved-from table
    route_off_.push_back(0);
    num_pairs_ = 0;
  }
  route_off_.push_back(static_cast<std::uint32_t>(arena_.size()));
  pair_src_.push_back(x);
  pair_dst_.push_back(y);
  if (new_pair) ++num_pairs_;
  // Keep load factor <= 1/2.
  if (num_routes() * 2 > slots_.size()) {
    rebuild_slots();
    return;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_pair_key(key(x, y)) & mask;
  while (slots_[i] != kNoRoute) i = (i + 1) & mask;
  slots_.set(i, static_cast<std::uint32_t>(num_routes() - 1));
}

void RoutingTable::check_endpoints(const Path& path) const {
  FTR_EXPECTS_MSG(path.size() >= 2, "a route needs at least two nodes");
  FTR_EXPECTS(path.front() < n_ && path.back() < n_ &&
              path.front() != path.back());
}

void RoutingTable::set_route(const Path& path) {
  check_endpoints(path);
  auto add = [&](Node x, Node y, bool rev) {
    const Fit f = fit(x, y, path, rev);
    if (f == Fit::kHeld) return;
    FTR_EXPECTS_MSG(f != Fit::kFull,
                    "conflicting route for pair ("
                        << x << "," << y << "): it holds its cap of " << cap_
                        << " route(s), first "
                        << path_to_string(view_of(find(x, y))) << ", new "
                        << (rev ? path_to_string(Path(path.rbegin(),
                                                      path.rend()))
                                : path_to_string(path)));
    append(x, y, path, rev, f == Fit::kNewPair);
  };
  add(path.front(), path.back(), /*rev=*/false);
  if (mode_ == RoutingMode::kBidirectional) {
    add(path.back(), path.front(), /*rev=*/true);
  }
}

bool RoutingTable::try_set_route(const Path& path) {
  check_endpoints(path);
  const Node x = path.front();
  const Node y = path.back();
  const bool bidirectional = mode_ == RoutingMode::kBidirectional;
  const Fit fwd = fit(x, y, path, /*rev=*/false);
  const Fit bwd = bidirectional ? fit(y, x, path, /*rev=*/true) : Fit::kHeld;
  if (fwd == Fit::kFull || bwd == Fit::kFull) return false;
  if (fwd != Fit::kHeld) {
    append(x, y, path, /*rev=*/false, fwd == Fit::kNewPair);
  }
  if (bwd != Fit::kHeld) {
    append(y, x, path, /*rev=*/true, bwd == Fit::kNewPair);
  }
  return true;
}

PathView RoutingTable::route(Node x, Node y) const {
  FTR_EXPECTS(x < n_ && y < n_);
  const std::uint32_t r = find(x, y);
  return r == kNoRoute ? PathView{} : view_of(r);
}

std::vector<PathView> RoutingTable::routes(Node x, Node y) const {
  FTR_EXPECTS(x < n_ && y < n_);
  std::vector<PathView> out;
  probe(x, y, [&](std::uint32_t r) {
    out.push_back(view_of(r));
    return true;
  });
  return out;
}

void RoutingTable::for_each(
    const std::function<void(Node, Node, const Path&)>& fn) const {
  for_each_view(
      [&fn](Node x, Node y, PathView path) { fn(x, y, path.to_path()); });
}

void RoutingTable::for_each_view(
    const std::function<void(Node, Node, PathView)>& fn) const {
  const bool one_per_pair = num_pairs_ == num_routes();
  for (std::uint32_t r = 0; r < num_routes(); ++r) {
    const Node x = pair_src_[r];
    const Node y = pair_dst_[r];
    if (one_per_pair) {
      fn(x, y, view_of(r));
      continue;
    }
    // A pair's routes are visited together, from its first route.
    if (find(x, y) != r) continue;
    probe(x, y, [&](std::uint32_t q) {
      fn(x, y, view_of(q));
      return true;
    });
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
    if (cap_ != 0 && num_pairs_ != num_routes()) {
      std::size_t held = 0;
      probe(x, y, [&held](std::uint32_t) {
        ++held;
        return true;
      });
      FTR_ASSERT_MSG(held <= cap_, "pair (" << x << "," << y << ") holds "
                                            << held << " routes, over the cap of "
                                            << cap_);
    }
    if (mode_ == RoutingMode::kBidirectional) {
      std::size_t reverse = 0;
      bool mirrored = false;
      probe(y, x, [&](std::uint32_t q) {
        ++reverse;
        mirrored = equals_path(view_of(q), path, /*rev=*/true);
        return !mirrored;
      });
      FTR_ASSERT_MSG(reverse != 0, "bidirectional table missing reverse of ("
                                       << x << "," << y << ")");
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

void install_edge_routes(RoutingTable& table, const Graph& g) {
  g.for_each_edge([&table](Node u, Node v) {
    table.set_route(Path{u, v});
    if (table.mode() == RoutingMode::kUnidirectional) {
      table.set_route(Path{v, u});
    }
  });
}

}  // namespace ftr
