#include "routing/circular.hpp"

#include <vector>

#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "common/contracts.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {

CircularRouting build_circular_routing(const Graph& g, std::uint32_t t,
                                       const std::vector<Node>& neighborhood_set,
                                       std::uint32_t k_override) {
  const std::uint32_t required = circular_required_k(t);
  std::uint32_t k = k_override == 0 ? required : k_override;
  FTR_EXPECTS_MSG(k % 2 == 1, "circular routing needs odd K, got " << k);
  FTR_EXPECTS_MSG(k >= required,
                  "K = " << k << " below Theorem 10 requirement " << required);
  FTR_EXPECTS_MSG(neighborhood_set.size() >= k,
                  "neighborhood set of size " << neighborhood_set.size()
                                              << " cannot provide K = " << k);

  std::vector<Node> m(neighborhood_set.begin(), neighborhood_set.begin() + k);
  FTR_EXPECTS_MSG(is_neighborhood_set(g, m), "M is not a neighborhood set");

  // shell_of[v] = i+1 if v lies in Gamma_i, 0 otherwise. Shells are disjoint
  // by the neighborhood-set property, so the assignment is well defined.
  std::vector<std::uint32_t> shell_of(g.num_nodes(), 0);
  std::vector<std::vector<Node>> gamma(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto nbrs = g.neighbors(m[i]);
    gamma[i].assign(nbrs.begin(), nbrs.end());
    FTR_EXPECTS_MSG(gamma[i].size() >= t + 1,
                    "deg(m_" << i << ") = " << gamma[i].size()
                             << " < t+1; graph cannot be (t+1)-connected");
    for (Node v : gamma[i]) shell_of[v] = i + 1;
  }

  RouteTableBuilder table(g.num_nodes(), RoutingMode::kBidirectional);

  // Component CIRC 3: direct edge routes (first, so tree-routing seeds are
  // consistent re-assignments).
  install_edge_routes(table, g);

  const std::uint32_t forward = (k + 1) / 2 - 1;  // ceil(K/2) - 1 for odd K
  for (Node x = 0; x < g.num_nodes(); ++x) {
    if (shell_of[x] == 0) {
      // Component CIRC 1: x outside Gamma routes to every shell.
      for (std::uint32_t i = 0; i < k; ++i) {
        if (x == m[i]) {
          // Tree routing from m_i to its own shell: all direct edges.
          for (Node y : gamma[i]) table.set_route(Path{x, y});
          continue;
        }
        const TreeRouting tr = build_tree_routing(g, x, gamma[i], t + 1);
        install_tree_routing(table, tr);
      }
    } else {
      // Component CIRC 2: x in Gamma_i routes to the forward-half shells.
      const std::uint32_t i = shell_of[x] - 1;
      for (std::uint32_t j = 1; j <= forward; ++j) {
        const std::uint32_t target = (i + j) % k;
        const TreeRouting tr = build_tree_routing(g, x, gamma[target], t + 1);
        install_tree_routing(table, tr);
      }
    }
  }

  return CircularRouting{std::move(table).build(), std::move(m), t};
}

}  // namespace ftr
