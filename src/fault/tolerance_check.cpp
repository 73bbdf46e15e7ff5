#include "fault/tolerance_check.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
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
    unit.kind = UnitKind::kAdvGray;
    unit.end = total;
    plan.push_back(unit);
  } else {
    // Independent stream roots for the two search phases, both derived from
    // the one seed so the whole report is a pure function of it.
    unit.kind = UnitKind::kAdvSampled;
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

  AdvPartial worst;
  for (const UnitSpec& u : plan) {
    merge_adversary_partials(worst, options.runner
                                        ? options.runner(u)
                                        : execute_adv_unit(index, u));
  }

  ToleranceReport report;
  report.claimed_bound = claimed_bound;
  report.faults = f;
  report.worst_diameter = worst.d;
  report.worst_faults = std::move(worst.faults);
  report.fault_sets_checked = worst.evaluations;
  report.exhaustive = exhaustive;
  report.holds = report.worst_diameter <= claimed_bound;
  return report;
}

namespace {

// Route-load-targeted hill-climber seeds: knocking out the busiest nodes
// first is the natural informed attack. Applied for single-route tables
// only (matching the historical behavior of the table-level overloads).
ToleranceCheckOptions with_route_load_seeds(const RoutingTable& table,
                                            std::uint32_t f,
                                            const ToleranceCheckOptions& options) {
  ToleranceCheckOptions opts = options;
  if (opts.seeds.empty() && f > 0 && f <= table.num_nodes()) {
    const auto ranked = nodes_by_route_load(table);
    std::vector<Node> top(ranked.begin(), ranked.begin() + f);
    opts.seeds.push_back(std::move(top));
  }
  return opts;
}

}  // namespace

ToleranceReport check_tolerance(const RoutingTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr);
  FTR_EXPECTS(index->num_nodes() == table.num_nodes());
  return check_tolerance(*index, f, claimed_bound, rng(),
                         with_route_load_seeds(table, f, options));
}

ToleranceReport check_tolerance(const MultiRouteTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr);
  FTR_EXPECTS(index->num_nodes() == table.num_nodes());
  return check_tolerance(*index, f, claimed_bound, rng(), options);
}

ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options) {
  return check_tolerance(table, std::make_shared<const SrgIndex>(table), f,
                         claimed_bound, rng, options);
}

ToleranceReport check_tolerance(const MultiRouteTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options) {
  return check_tolerance(table, std::make_shared<const SrgIndex>(table), f,
                         claimed_bound, rng, options);
}

}  // namespace ftr
