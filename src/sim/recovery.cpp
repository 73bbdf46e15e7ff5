#include "sim/recovery.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"

namespace ftr {

ComponentwiseDiameter componentwise_surviving_diameter(
    const Graph& g, const RoutingTable& table,
    const std::vector<Node>& faults) {
  FTR_EXPECTS(g.num_nodes() == table.num_nodes());
  const SrgIndex index(table);
  SrgScratch scratch(index);
  return componentwise_surviving_diameter(g, scratch, faults);
}

ComponentwiseDiameter componentwise_surviving_diameter(
    const Graph& g, SrgScratch& scratch, const std::vector<Node>& faults) {
  FTR_EXPECTS(g.num_nodes() == scratch.num_nodes());
  const Graph degraded = g.without_nodes(faults);
  const auto comp = connected_components(degraded);

  std::vector<char> faulty(g.num_nodes(), 0);
  for (Node f : faults) {
    FTR_EXPECTS(f < g.num_nodes());
    faulty[f] = 1;
  }

  ComponentwiseDiameter out;
  // Count survivors and distinct components among them.
  std::vector<std::uint32_t> ids;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    if (!faulty[v]) {
      ++out.survivors;
      ids.push_back(comp[v]);
    }
  }
  std::sort(ids.begin(), ids.end());
  out.num_components = static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());

  out.worst = scratch.componentwise_diameter(faults, comp);
  return out;
}

std::vector<ComponentwiseDiameter> componentwise_sweep(
    const Graph& g, const SrgIndex& index,
    const std::vector<std::vector<Node>>& fault_sets, const ExecPolicy& policy,
    ExecutorStats* stats) {
  FTR_EXPECTS(g.num_nodes() == index.num_nodes());
  const unsigned threads = policy.resolved_threads();
  std::vector<ComponentwiseDiameter> out(fault_sets.size());
  parallel_for_chunks(
      fault_sets.size(), threads,
      sweep_grain(fault_sets.size(), threads),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        // One scratch per chunk: its O(n + routes) setup amortizes over the
        // chunk's fault sets, and results land at their own indices, so the
        // merge is the identity whatever the thread count.
        SrgScratch scratch(index);
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = componentwise_surviving_diameter(g, scratch, fault_sets[i]);
        }
      },
      stats);
  return out;
}

RecoveryOutcome rebuild_after_faults(const Graph& g,
                                     const std::vector<Node>& faults,
                                     Rng& rng) {
  FTR_EXPECTS_MSG(g.num_nodes() >= faults.size() + 3,
                  "need at least 3 survivors to rebuild a routing");
  const InducedSubgraph sub = surviving_subgraph(g, faults);

  RecoveryOutcome out;
  out.table =
      RouteTableBuilder(g.num_nodes(), RoutingMode::kBidirectional).build();
  out.survivors = sub.to_original;
  out.survivors_connected = is_connected(sub.graph);
  if (!out.survivors_connected) return out;

  out.degraded_connectivity = node_connectivity(sub.graph);
  if (out.degraded_connectivity == 0) return out;

  const GraphProfile profile =
      profile_graph(sub.graph, out.degraded_connectivity, rng,
                    /*compute_diameter=*/false);
  if (!profile.kernel_applicable && !profile.circular_applicable &&
      !profile.bipolar_applicable) {
    // Complete or trivial survivor network: every pair is adjacent anyway.
    out.plan = Plan{};
    return out;
  }
  PlannedRouting planned = build_planned_routing(sub.graph, profile, rng);
  out.plan = planned.plan;

  // Lift routes from subgraph ids to the original node ids.
  RouteTableBuilder lifted(g.num_nodes(), planned.table.mode());
  planned.table.for_each_view([&](Node x, Node y, PathView path) {
    (void)x;
    (void)y;
    const Path orig = sub.lift(path.span());
    if (lifted.mode() == RoutingMode::kUnidirectional ||
        orig.front() < orig.back()) {
      lifted.set_route(orig);
    }
  });
  out.table = std::move(lifted).build();
  return out;
}

}  // namespace ftr
