#include "core/planner.hpp"

#include <sstream>

#include "analysis/neighborhood.hpp"
#include "common/contracts.hpp"
#include "fault/fault_gen.hpp"
#include "routing/bipolar.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"

namespace ftr {

const char* construction_name(Construction c) {
  switch (c) {
    case Construction::kTriCircularFull:
      return "tri-circular (full)";
    case Construction::kBipolarUnidirectional:
      return "bipolar (unidirectional)";
    case Construction::kTriCircularCompact:
      return "tri-circular (compact)";
    case Construction::kBipolarBidirectional:
      return "bipolar (bidirectional)";
    case Construction::kCircular:
      return "circular";
    case Construction::kKernel:
      return "kernel";
  }
  return "?";
}

Plan plan_routing(const GraphProfile& profile) {
  Plan plan;
  plan.tolerated_faults = profile.t;
  std::ostringstream why;

  if (profile.tricircular_applicable) {
    plan.construction = Construction::kTriCircularFull;
    plan.guaranteed_diameter = 4;
    why << "neighborhood set of size " << profile.neighborhood_set_size
        << " >= 6t+9 = " << tricircular_required_k(profile.t)
        << " (Theorem 13)";
  } else if (profile.bipolar_applicable) {
    plan.construction = Construction::kBipolarUnidirectional;
    plan.guaranteed_diameter = 4;
    why << "two-trees witness (" << profile.two_trees->r1 << ","
        << profile.two_trees->r2 << ") (Theorem 20)";
  } else if (profile.tricircular_compact_applicable) {
    plan.construction = Construction::kTriCircularCompact;
    plan.guaranteed_diameter = 5;
    why << "neighborhood set of size " << profile.neighborhood_set_size
        << " >= " << tricircular_compact_required_k(profile.t)
        << " (Remark 14)";
  } else if (profile.circular_applicable) {
    plan.construction = Construction::kCircular;
    plan.guaranteed_diameter = 6;
    why << "neighborhood set of size " << profile.neighborhood_set_size
        << " >= " << circular_required_k(profile.t) << " (Theorem 10)";
  } else {
    FTR_EXPECTS_MSG(profile.kernel_applicable,
                    "no construction applies (graph complete or trivial)");
    plan.construction = Construction::kKernel;
    plan.guaranteed_diameter = std::max(2 * profile.t, 4u);
    why << "fallback kernel routing (Theorem 3: max{2t,4}; "
           "(4,floor(t/2)) per Theorem 4)";
  }
  plan.rationale = why.str();
  return plan;
}

PlannedRouting build_planned_routing(const Graph& g,
                                     const GraphProfile& profile, Rng& rng) {
  const Plan plan = plan_routing(profile);
  switch (plan.construction) {
    case Construction::kTriCircularFull: {
      auto m = neighborhood_set_of_size(g, tricircular_required_k(profile.t),
                                        rng);
      auto r = build_tricircular_routing(g, profile.t, m,
                                         TriCircularVariant::kFull);
      return PlannedRouting{plan, std::move(r.table), std::move(r.m)};
    }
    case Construction::kTriCircularCompact: {
      auto m = neighborhood_set_of_size(
          g, tricircular_compact_required_k(profile.t), rng);
      auto r = build_tricircular_routing(g, profile.t, m,
                                         TriCircularVariant::kCompact);
      return PlannedRouting{plan, std::move(r.table), std::move(r.m)};
    }
    case Construction::kBipolarUnidirectional: {
      auto r = build_bipolar_unidirectional(g, profile.t, *profile.two_trees);
      return PlannedRouting{plan, std::move(r.table), {}};
    }
    case Construction::kBipolarBidirectional: {
      auto r = build_bipolar_bidirectional(g, profile.t, *profile.two_trees);
      return PlannedRouting{plan, std::move(r.table), {}};
    }
    case Construction::kCircular: {
      auto m = neighborhood_set_of_size(g, circular_required_k(profile.t), rng);
      auto r = build_circular_routing(g, profile.t, m);
      return PlannedRouting{plan, std::move(r.table), std::move(r.m)};
    }
    case Construction::kKernel: {
      auto r = build_kernel_routing(g, profile.t);
      return PlannedRouting{plan, std::move(r.table),
                            std::move(r.separating_set)};
    }
  }
  FTR_ASSERT_MSG(false, "unreachable construction");
  throw ContractViolation("unreachable");
}

PlannedRouting build_planned_routing(
    const Graph& g, std::optional<std::uint32_t> known_connectivity,
    Rng& rng) {
  const GraphProfile profile =
      profile_graph(g, known_connectivity, rng, /*compute_diameter=*/false);
  return build_planned_routing(g, profile, rng);
}

CertifiedRouting build_certified_routing(
    const Graph& g, std::optional<std::uint32_t> known_connectivity, Rng& rng,
    const ToleranceCheckOptions& check_options) {
  CertifiedRouting out{build_planned_routing(g, known_connectivity, rng), {},
                       nullptr};
  // One preprocessing serves the certification sweep AND whoever consumes
  // the certified table afterwards (the registry's build-on-miss path).
  out.index = std::make_shared<const SrgIndex>(out.routing.table);
  const std::uint32_t f = out.routing.plan.tolerated_faults;
  out.certificate = check_tolerance(
      *out.index, f, out.routing.plan.guaranteed_diameter, rng(),
      with_route_load_seeds(nodes_by_route_load(out.routing.table), f,
                            check_options));
  return out;
}

}  // namespace ftr
