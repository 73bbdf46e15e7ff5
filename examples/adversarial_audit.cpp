// Adversarial audit: given a routing, search for the worst fault set an
// attacker who knows the route tables could pick, and compare it to the
// theorem bound. Demonstrates the fault/adversary toolkit on two
// constructions with very different failure anatomies.
//
//   $ ./example_adversarial_audit
#include <iostream>

#include "core/ftroute.hpp"

namespace {

void audit(const std::string& label, const ftr::RoutingTable& table,
           std::uint32_t f, std::uint32_t claimed) {
  // One scratch per evaluator over a shared preprocessing of the table.
  const ftr::SrgIndex index(table);
  const auto make_eval =
      ftr::srg_evaluator_factory(index, ftr::SrgKernel::kAuto);

  // Informed seed: the f busiest nodes by route load.
  const auto ranked = ftr::nodes_by_route_load(table);
  std::vector<ftr::Node> top(ranked.begin(), ranked.begin() + f);

  // 300 uniform samples, then 6 climbs (the first from the informed seed)
  // of up to 32 steps each; both draw from streams of seed 99.
  const auto random =
      ftr::sampled_worst_faults(table.num_nodes(), f, make_eval, 99, 0, 300);
  const auto informed = ftr::hillclimb_worst_faults(
      table.num_nodes(), f, make_eval, 99, 0, 6, 32, {top});

  std::cout << label << " (f = " << f << ", theorem bound " << claimed
            << "):\n"
            << "  random sampling worst:  " << random.d << " ("
            << random.evaluations << " sets)\n"
            << "  informed adversary:     " << informed.d << " ("
            << informed.evaluations << " sets), faults {";
  for (std::size_t i = 0; i < informed.faults.size(); ++i) {
    std::cout << (i ? "," : "") << informed.faults[i];
  }
  std::cout << "}\n  verdict: "
            << (std::max(random.d, informed.d) <= claimed
                    ? "within the theorem bound"
                    : "BOUND VIOLATED (library bug)")
            << "\n\n";
}

}  // namespace

int main() {
  ftr::Rng rng(31);

  {
    // Kernel routing on a torus: the concentrator is the soft spot the
    // adversary knows about — yet Theorem 3 still caps the damage.
    const auto gg = ftr::torus_graph(6, 6);
    const auto kr = ftr::build_kernel_routing(gg.graph, 3);
    audit("kernel on " + gg.name, kr.table, 3, 6);
  }
  {
    // Tri-circular on a long cycle: 15 concentrator members, any single
    // fault leaves a (4, 1) guarantee.
    const auto gg = ftr::cycle_graph(60);
    const auto m = ftr::neighborhood_set_of_size(gg.graph, 15, rng, 32);
    const auto tr = ftr::build_tricircular_routing(
        gg.graph, 1, m, ftr::TriCircularVariant::kFull);
    audit("tri-circular on " + gg.name, tr.table, 1, 4);
  }
  {
    // Bipolar on the dodecahedron: the roots and their shells carry the
    // structure; the audit hammers exactly those.
    const auto gg = ftr::dodecahedron();
    const auto w = ftr::find_two_trees(gg.graph);
    const auto br = ftr::build_bipolar_unidirectional(gg.graph, 2, *w);
    audit("bipolar-uni on " + gg.name, br.table, 2, 4);
  }
  return 0;
}
