// Umbrella header for the ftroute library: fault tolerant routings in
// general networks (Peleg & Simons, PODC 1986 / Inf. & Comp. 74, 1987).
//
// Quick start:
//
//   #include "core/ftroute.hpp"
//
//   ftr::Rng rng(42);
//   auto gg = ftr::cube_connected_cycles(4);             // a network
//   auto planned = ftr::build_planned_routing(           // pick + build the
//       gg.graph, gg.known_connectivity, rng);           // best construction
//   std::vector<ftr::Node> faults = {3, 17};
//   auto d = ftr::surviving_diameter(planned.table, faults);
//   // d <= planned.plan.guaranteed_diameter, per the paper's theorems.
#pragma once

#include "analysis/fault_sweep.hpp"
#include "analysis/gnp_theory.hpp"
#include "analysis/neighborhood.hpp"
#include "analysis/properties.hpp"
#include "analysis/routing_properties.hpp"
#include "analysis/stretch.hpp"
#include "analysis/two_trees.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/planner.hpp"
#include "fault/adversary.hpp"
#include "fault/edge_faults.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/subgraph.hpp"
#include "routing/augmented.hpp"
#include "routing/bipolar.hpp"
#include "routing/circular.hpp"
#include "routing/hypercube_routing.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"
#include "routing/serialization.hpp"
#include "routing/tree_routing.hpp"
#include "routing/tricircular.hpp"
#include "serve/request_router.hpp"
#include "serve/table_registry.hpp"
#include "sim/broadcast.hpp"
#include "sim/network_sim.hpp"
#include "sim/recovery.hpp"
