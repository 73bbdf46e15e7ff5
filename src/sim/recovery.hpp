// Fault recovery and over-budget behavior (paper Section 7, open problem 3:
// "Suppose that there are more than t faults ... Are there routings that
// are well behaved so long as the network is not disconnected and that
// continue to keep the diameter small in the connected components?").
//
// Two tools:
//  * componentwise_surviving_diameter measures exactly the open problem's
//    metric: the worst surviving-route distance between survivors that are
//    still connected in the underlying network, even when G - F has split;
//  * rebuild_after_faults re-runs the planner on the survivors' network —
//    the offline version of the route-counter recomputation from Section 1
//    — and reports the fresh guarantee the degraded network supports.
#pragma once

#include <cstdint>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

struct ComponentwiseDiameter {
  /// Worst surviving-route distance over ordered survivor pairs that share
  /// a connected component of G - F; kUnreachable if some such pair cannot
  /// route.
  std::uint32_t worst = 0;
  std::size_t num_components = 0;  // components among survivors
  std::size_t survivors = 0;
};

/// The open-problem-3 metric for a routing under a (possibly over-budget)
/// fault set.
ComponentwiseDiameter componentwise_surviving_diameter(
    const Graph& g, const RoutingTable& table, const std::vector<Node>& faults);

/// Batched variant: reuses one SrgScratch across many fault sets against
/// the same table (the scratch must have been built from an index over that
/// table; parallel sweep workers own one each).
ComponentwiseDiameter componentwise_surviving_diameter(
    const Graph& g, SrgScratch& scratch, const std::vector<Node>& faults);

/// The open-problem-3 metric for many fault sets against one shared table
/// preprocessing, fanned across policy.threads workers (the usual ExecPolicy
/// composition — see common/exec_policy.hpp). The result is positionally
/// aligned with `fault_sets` and bit-identical for any policy. `stats`,
/// when non-null, receives the executor's work-stealing telemetry
/// (scheduling-dependent — probes only).
std::vector<ComponentwiseDiameter> componentwise_sweep(
    const Graph& g, const SrgIndex& index,
    const std::vector<std::vector<Node>>& fault_sets,
    const ExecPolicy& policy = {}, ExecutorStats* stats = nullptr);

struct RecoveryOutcome {
  bool survivors_connected = false;
  std::uint32_t degraded_connectivity = 0;  // kappa of the survivors' graph
  Plan plan;                                // fresh plan on the survivors
  RoutingTable table;                       // routes lifted to original ids
  std::vector<Node> survivors;
};

/// Rebuilds a routing for the survivors' network. Requires >= 3 survivors;
/// if they are disconnected (or the degraded network is complete/trivial so
/// no construction applies), survivors_connected/plan reflect that and the
/// table is empty.
RecoveryOutcome rebuild_after_faults(const Graph& g,
                                     const std::vector<Node>& faults,
                                     Rng& rng);

}  // namespace ftr
