// The paper's motivating scenario (Section 1): a network that encrypts at
// route endpoints, so transmission time is proportional to the number of
// routes traversed, and routing tables are rebuilt after faults by a
// route-counter broadcast. This example walks one full fault/recovery cycle
// on a torus fabric and prints the protocol-level numbers.
//
//   $ ./example_broadcast_under_faults [faults]
#include <cstdlib>
#include <iostream>

#include "core/ftroute.hpp"

int main(int argc, char** argv) {
  ftr::Rng rng(2026);
  const auto gg = ftr::torus_graph(7, 7);
  const std::uint32_t t = *gg.known_connectivity - 1;  // 3
  const std::uint32_t num_faults =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : t;
  if (num_faults > t) {
    std::cerr << "this fabric tolerates at most " << t << " faults\n";
    return 1;
  }

  // Circular routing: torus has no two-trees property (every node on a
  // 4-cycle) but packs a fine neighborhood set.
  const auto m = ftr::neighborhood_set_of_size(
      gg.graph, ftr::circular_required_k(t), rng, 32);
  const auto routing = ftr::build_circular_routing(gg.graph, t, m);
  std::cout << "fabric " << gg.name << ", circular routing over concentrator"
            << " of " << routing.m.size() << " nodes; guarantee: diameter"
            << " <= 6 with <= " << t << " faults\n\n";

  // Healthy-network baseline. Delivery runs on the set a scratch last
  // evaluated, so one index and scratch serve both measurements.
  const ftr::SrgIndex index(routing.table);
  ftr::SrgScratch scratch(index);
  scratch.evaluate({});
  auto srng = rng.split();
  const auto healthy = ftr::measure_delivery(scratch, 500, srng);
  std::cout << "healthy: avg " << healthy.avg_route_hops
            << " route traversals per message (avg " << healthy.avg_edge_hops
            << " link hops)\n";

  // Fault event.
  const auto sample = rng.sample(gg.graph.num_nodes(), num_faults);
  const std::vector<ftr::Node> faults(sample.begin(), sample.end());
  std::cout << "\nfault event: nodes {";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    std::cout << (i ? "," : "") << faults[i];
  }
  std::cout << "} fail\n";

  const auto surviving = ftr::surviving_graph(routing.table, faults);
  const auto diam = ftr::diameter(surviving);
  std::cout << "surviving route graph: " << surviving.num_present()
            << " nodes, " << surviving.num_arcs() << " live routes, diameter "
            << diam << "\n";

  // Route-table rebuild: every node broadcasts its state; the route counter
  // is capped by the *guarantee* (6), since survivors know the theorem, not
  // the actual fault set.
  std::uint32_t worst_rounds = 0;
  std::uint64_t total_msgs = 0;
  bool all_complete = true;
  for (ftr::Node src : surviving.present_nodes()) {
    const auto b = ftr::simulate_broadcast(surviving, src, 6);
    worst_rounds = std::max(worst_rounds, b.rounds);
    total_msgs += b.messages_sent;
    all_complete &= b.complete;
  }
  std::cout << "route-counter broadcast from every survivor: worst "
            << worst_rounds << " rounds, " << total_msgs
            << " messages total, all complete: "
            << (all_complete ? "yes" : "NO") << "\n";

  // Degraded-mode delivery cost.
  scratch.evaluate(faults);
  auto drng = rng.split();
  const auto degraded = ftr::measure_delivery(scratch, 500, drng);
  std::cout << "\ndegraded: avg " << degraded.avg_route_hops
            << " route traversals (max " << degraded.max_route_hops
            << ", guarantee 6), delivered " << degraded.delivered << "/"
            << degraded.pairs_sampled << " sampled messages\n";
  return all_complete && diam <= 6 ? 0 : 1;
}
