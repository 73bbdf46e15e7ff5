// End-to-end message delivery under the paper's cost model: transmission
// time is dominated by per-route endpoint processing (encryption, error
// correction), so delivery cost ~ number of routes traversed, and the
// surviving diameter is the worst case. This module measures both the
// route-hop distribution and the underlying edge-hop totals for delivered
// messages — the systems-level view of the graph-theoretic bounds.
//
// Delivery runs on the fault set an SrgScratch holds (stamped by
// set_faults() or an evaluation): messages follow SrgScratch::route_path,
// which tests each arc it walks against the set's fault stamps, so
// measuring a set needs no strike, no bitset rows and no per-set graph.
// Each arc's edge hops are those of the route the message actually takes
// (SrgScratch::path_routes): on a multirouting, the pair's first route
// that avoids the faults, not merely its first route.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"

namespace ftr {

struct DeliveryStats {
  std::size_t pairs_sampled = 0;
  std::size_t delivered = 0;        // pairs connected in the surviving graph
  double avg_route_hops = 0.0;      // mean #routes traversed (delivered only)
  std::uint32_t max_route_hops = 0;
  double avg_edge_hops = 0.0;       // mean total underlying edges traversed
  std::uint64_t max_edge_hops = 0;
  /// Exact integer totals behind the means. Aggregating sweeps fold THESE,
  /// never avg * delivered: integer sums are associative, so any partition
  /// of a sweep (batches, threads, remote workers) merges to bit-identical
  /// aggregates, which a float fold cannot promise.
  std::uint64_t route_hops_total = 0;
  std::uint64_t edge_hops_total = 0;
};

/// Samples ordered pairs of survivors of the set `scratch` holds (its last
/// set_faults() or evaluation) and routes a message from source to target
/// through that set's surviving route graph (fewest route traversals,
/// SrgScratch::route_path; edge hops summed over the live routes it took).
/// `sample_pairs` = 0 measures all ordered pairs.
DeliveryStats measure_delivery(SrgScratch& scratch, std::size_t sample_pairs,
                               Rng& rng);

}  // namespace ftr
