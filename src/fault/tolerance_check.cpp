#include "fault/tolerance_check.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/fault_sweep.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/fault_gen.hpp"
#include "graph/bfs.hpp"

namespace ftr {

std::string ToleranceReport::summary() const {
  std::ostringstream os;
  os << "f=" << faults << " claimed<=" << claimed_bound << " measured=";
  if (worst_diameter == kUnreachable) {
    os << "disconnected";
  } else {
    os << worst_diameter;
  }
  os << (exhaustive ? " (exhaustive, " : " (adversarial, ")
     << fault_sets_checked << " sets) " << (holds ? "HOLDS" : "VIOLATED");
  return os.str();
}

ToleranceReport check_tolerance(const SrgIndex& index, std::uint32_t f,
                                std::uint32_t claimed_bound,
                                std::uint64_t seed,
                                const ToleranceCheckOptions& options) {
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS_MSG(f <= n, "f = " << f << " exceeds n = " << n);
  const std::uint64_t total = binomial(n, f);
  const bool exhaustive = total <= options.exhaustive_budget;

  // Plan whole-space units; a runner may split each one further.
  UnitSpec unit;
  unit.f = f;
  unit.exec = options.exec;
  std::vector<UnitSpec> plan;
  if (exhaustive) {
    unit.kind = UnitKind::kSweepGray;
    unit.end = total;
    plan.push_back(unit);
  } else {
    // Independent stream roots for the two search phases, both derived from
    // the one seed so the whole report is a pure function of it.
    unit.kind = UnitKind::kSweepSampled;
    unit.seed = Rng::stream(seed, 1)();
    unit.end = options.samples;
    plan.push_back(unit);
    unit.kind = UnitKind::kAdvClimb;
    unit.seed = Rng::stream(seed, 2)();
    unit.end = std::max<std::uint64_t>(options.hillclimb_restarts,
                                       options.seeds.size());
    unit.max_steps = options.hillclimb_steps;
    unit.climb_seeds = options.seeds;
    plan.push_back(std::move(unit));
  }

  SweepPartial worst;
  for (const UnitSpec& u : plan) {
    merge_sweep_partials(worst, options.runner ? options.runner(u)
                                               : execute_unit(index, u));
  }

  ToleranceReport report;
  report.claimed_bound = claimed_bound;
  report.faults = f;
  report.worst_diameter = worst.worst_diameter;
  report.worst_faults = std::move(worst.worst_faults);
  report.fault_sets_checked = worst.sets;
  report.exhaustive = exhaustive;
  report.holds = report.worst_diameter <= claimed_bound;
  return report;
}

ToleranceCheckOptions with_route_load_seeds(std::span<const Node> ranking,
                                            std::uint32_t f,
                                            ToleranceCheckOptions options) {
  if (options.seeds.empty() && f > 0 && f <= ranking.size()) {
    options.seeds.emplace_back(ranking.begin(), ranking.begin() + f);
  }
  return options;
}

ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options) {
  const SrgIndex index(table);
  return check_tolerance(
      index, f, claimed_bound, rng(),
      with_route_load_seeds(nodes_by_route_load(table), f, options));
}

}  // namespace ftr
