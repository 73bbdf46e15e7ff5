// Adversarial audit: given a routing, search for the worst fault set an
// attacker who knows the route tables could pick, and compare it to the
// theorem bound. Demonstrates the check's two adversarial searches (a
// uniform sampling unit and the informed hill-climber) on three constructions with very
// different failure anatomies.
//
//   $ ./example_adversarial_audit
#include <iostream>

#include "core/ftroute.hpp"

namespace {

void audit(const std::string& label, const ftr::RoutingTable& table,
           std::uint32_t f, std::uint32_t claimed) {
  // One shared preprocessing of the table; both searches below build
  // their own scratches over it.
  const ftr::SrgIndex index(table);

  // Informed seed: the f busiest nodes by route load.
  const auto ranked = ftr::nodes_by_route_load(table);
  std::vector<ftr::Node> top(ranked.begin(), ranked.begin() + f);

  // 300 uniform samples, one work unit run by the executor behind every
  // sweep and check; then 6 climbs (the first from the informed seed) of
  // up to 32 steps each. Both draw from streams of seed 99.
  ftr::UnitSpec unit;
  unit.f = f;
  unit.seed = 99;
  unit.kind = ftr::UnitKind::kSweepSampled;
  unit.end = 300;
  const auto random = ftr::execute_unit(index, unit);
  const auto informed = ftr::hillclimb_worst_faults(
      index.num_nodes(), f, ftr::srg_evaluator_factory(index), 99, 6, 32,
      {top});

  std::cout << label << " (f = " << f << ", theorem bound " << claimed
            << "):\n"
            << "  random sampling worst:  " << random.worst_diameter << " ("
            << random.sets << " sets)\n"
            << "  informed adversary:     " << informed.worst_diameter << " ("
            << informed.sets << " sets), faults {";
  for (std::size_t i = 0; i < informed.worst_faults.size(); ++i) {
    std::cout << (i ? "," : "") << informed.worst_faults[i];
  }
  std::cout << "}\n  verdict: "
            << (std::max(random.worst_diameter, informed.worst_diameter) <=
                        claimed
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
