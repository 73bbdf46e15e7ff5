#include "fault/tolerance_check.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/fault_sweep.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/adversary.hpp"
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

std::optional<UnitSpec> exhaustive_check_unit(
    std::size_t n, std::uint32_t f, const ToleranceCheckOptions& options) {
  UnitSpec unit;  // kSweepGray, seed 0
  unit.f = f;
  unit.end = binomial(n, f);
  unit.exec = options.exec;
  if (unit.end <= options.exhaustive_budget) return unit;
  return std::nullopt;
}

ToleranceReport check_tolerance(const SrgIndex& index, std::uint32_t f,
                                std::uint32_t claimed_bound,
                                std::uint64_t seed,
                                const ToleranceCheckOptions& options) {
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS_MSG(f <= n, "f = " << f << " exceeds n = " << n);

  // One whole-space sweep unit (a runner may split it further), then, past
  // the budget, the climb in process. Independent stream roots for the two
  // search phases, both derived from the one seed, keep the whole report a
  // pure function of it.
  std::optional<UnitSpec> unit = exhaustive_check_unit(n, f, options);
  const bool exhaustive = unit.has_value();
  if (!exhaustive) {
    unit.emplace();
    unit->kind = UnitKind::kSweepSampled;
    unit->f = f;
    unit->end = options.samples;
    unit->seed = Rng::stream(seed, 1)();
    unit->exec = options.exec;
  }
  SweepPartial worst =
      options.runner ? options.runner(*unit) : execute_unit(index, *unit);
  if (!exhaustive) {
    const SweepPartial climb = hillclimb_worst_faults(
        n, f, srg_evaluator_factory(index), Rng::stream(seed, 2)(),
        std::max<std::uint64_t>(options.hillclimb_restarts,
                                options.seeds.size()),
        options.hillclimb_steps, options.seeds, options.exec);
    // Restart ids and sample ids are different index spaces, so this is no
    // merge_sweep_partials: the climb's witness wins only on a strictly
    // greater diameter, ties keeping the samples'.
    worst.sets += climb.sets;
    if (climb.have_worst &&
        (!worst.have_worst || climb.worst_diameter > worst.worst_diameter)) {
      worst.worst_diameter = climb.worst_diameter;
      worst.worst_faults = climb.worst_faults;
    }
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
