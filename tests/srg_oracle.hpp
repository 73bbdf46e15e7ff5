// Test oracle for the SRG kernels (fault/srg_engine.hpp): every Result
// field straight from the paper's definition. fault/surviving.hpp's
// surviving_graph() walks every route of the table and builds R(G, rho)/F
// as a Digraph (an arc x -> y iff some route rho(x, y) avoids every fault),
// and BFS over it gives the diameters. It shares no strike, base rows or
// SrgIndex with the bitset and packed kernels it checks, so a fault in the
// index or the sparse strike shows up as a mismatch instead of being
// reproduced on both sides.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "graph/bfs.hpp"
#include "graph/digraph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// Evaluates fault sets against one table (routing or multirouting)
/// through its one-shot surviving graph. Holds a reference: the table must
/// outlive the oracle.
class SrgOracle {
 public:
  explicit SrgOracle(const RoutingTable& table) : table_(&table) {}
  explicit SrgOracle(RoutingTable&&) = delete;

  std::size_t num_nodes() const { return table_->num_nodes(); }

  /// R(G, rho)/F for `faults` (duplicates tolerated).
  Digraph graph(std::span<const Node> faults) const {
    return surviving_graph(*table_,
                           std::vector<Node>(faults.begin(), faults.end()));
  }

  /// What SrgScratch::evaluate() must return: the surviving graph's
  /// diameter, present nodes and arcs.
  SrgScratch::Result evaluate(std::span<const Node> faults) const {
    const Digraph r = graph(faults);
    SrgScratch::Result out;
    out.diameter = diameter(r);
    out.survivors = static_cast<std::uint32_t>(r.num_present());
    out.arcs = static_cast<std::uint32_t>(r.num_arcs());
    return out;
  }

  std::uint32_t surviving_diameter(std::span<const Node> faults) const {
    return evaluate(faults).diameter;
  }

  /// What SrgScratch::componentwise_diameter() must return: the worst
  /// distance over ordered survivor pairs sharing a class in `comp`,
  /// kUnreachable if one such pair has no path, 0 below two survivors.
  std::uint32_t componentwise_diameter(
      std::span<const Node> faults, std::span<const std::uint32_t> comp) const {
    const Digraph r = graph(faults);
    const auto nodes = r.present_nodes();
    if (nodes.size() <= 1) return 0;
    std::uint32_t worst = 0;
    for (Node s : nodes) {
      const auto dist = bfs_distances(r, s);
      for (Node t : nodes) {
        if (t == s || comp[t] != comp[s]) continue;
        if (dist[t] == kUnreachable) return kUnreachable;
        worst = std::max(worst, dist[t]);
      }
    }
    return worst;
  }

 private:
  const RoutingTable* table_;
};

}  // namespace ftr
