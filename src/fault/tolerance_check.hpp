// The (d, f)-tolerance verification harness: the bridge between the paper's
// theorems and the benchmark tables. Given a routing and a claimed bound, it
// measures the worst surviving diameter over fault sets of size f and
// reports claimed vs. measured.
//
// One decision tree answers every check: when C(n, f) fits the exhaustive
// budget (50,000 sets, the same for `check`, `build --certify` and serve)
// it plans one kSweepGray unit over the whole Gray rank space (ground
// truth; the witness is the first worst set in Gray order), otherwise a
// kSweepSampled unit without delivery, followed by a route-load-seeded
// hill-climb in process (an adversarial lower bound). The budget admits
// the planner's torus(8,8) at f = 3 (C(64, 3) = 41,664 sets): one packed
// Gray sweep of it costs ~50 ms on one thread.
// The check is a client of the sweep executor: its one unit runs through
// ToleranceCheckOptions::runner — execute_unit in process by default, or
// split over a worker pool. The climb's evaluations add to the samples',
// and its witness replaces theirs only on a strictly greater diameter. The
// report (verdict, witness, evaluation count) is bit-identical for any
// runner, thread count, or lane width.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// Runs one planned sweep unit and returns its partial (execute_unit over
/// an index, a worker pool's run, or a memo in front of either).
using SweepUnitRunner = std::function<SweepPartial(const UnitSpec&)>;

struct ToleranceReport {
  std::uint32_t claimed_bound = 0;   // the theorem's d
  std::uint32_t faults = 0;          // the f actually injected
  std::uint32_t worst_diameter = 0;  // measured (kUnreachable = disconnected)
  std::uint64_t fault_sets_checked = 0;
  bool exhaustive = false;  // ground truth vs. adversarial lower bound
  bool holds = false;       // worst_diameter <= claimed_bound
  std::vector<Node> worst_faults;

  std::string summary() const;
};

struct ToleranceCheckOptions {
  /// Enumerate all C(n, f) fault sets when that count is <= this budget.
  /// A set count, not a cost estimate: README gives the one-thread price
  /// of a sweep at the bound for n from 32 to 256.
  std::uint64_t exhaustive_budget = 50000;
  /// Otherwise: this many uniform samples ...
  std::size_t samples = 200;
  /// ... plus hill-climbing with this many restarts and step budget.
  std::size_t hillclimb_restarts = 6;
  std::size_t hillclimb_steps = 24;
  /// Extra seed sets (e.g. concentrator-targeted) for the hill-climber.
  std::vector<std::vector<Node>> seeds;
  /// How each unit executes (see common/exec_policy.hpp): threads fan the
  /// fault sets across workers. The exhaustive unit runs packed Gray
  /// blocks; the sampled unit and the hill-climber hand their sets to
  /// SrgScratch::evaluate_sets in batches (a chunk's samples, a lockstep
  /// round of climb steps), which runs packed any-set blocks and evaluates
  /// only short batches set by set. The report is identical for any value
  /// of any of it.
  ExecPolicy exec;
  /// Runs the planned sweep unit; empty = in-process (execute_unit over the
  /// check's index). `check --workers N` passes DistSweepPool::run, and
  /// serve its exact-verdict memo. The hill-climb always runs in process.
  SweepUnitRunner runner;
};

/// Route-load-targeted hill-climber seed: `options` plus the top f nodes
/// of `ranking` (busiest first, fault/fault_gen.hpp nodes_by_route_load)
/// as its one seed set, when it carries no seeds of its own and 0 < f <=
/// ranking.size(). Knocking out the busiest nodes first is the natural
/// informed attack.
ToleranceCheckOptions with_route_load_seeds(std::span<const Node> ranking,
                                            std::uint32_t f,
                                            ToleranceCheckOptions options);

/// The exhaustive unit check_tolerance plans for f faults over n nodes: one
/// kSweepGray unit over the whole rank space [0, C(n, f)) at options.exec,
/// or nothing when C(n, f) is past options.exhaustive_budget (the check
/// then samples and climbs). The one owner of the budget rule: serve asks
/// it which exact sweeps a window needs before the window runs.
std::optional<UnitSpec> exhaustive_check_unit(
    std::size_t n, std::uint32_t f, const ToleranceCheckOptions& options);

/// The decision tree itself, over a prebuilt index with an explicit search
/// seed. Callers that hold a shared index and its route-load ranking (a
/// loaded snapshot, a registry entry, a certified build) call this with
/// with_route_load_seeds(), so repeated checks pay the preprocessing once.
ToleranceReport check_tolerance(const SrgIndex& index, std::uint32_t f,
                                std::uint32_t claimed_bound,
                                std::uint64_t seed,
                                const ToleranceCheckOptions& options = {});

/// Worst-case check for exactly f faults (the paper's bounds are monotone
/// in f for the exhaustive case; sweep callers vary f explicitly). Builds
/// the table's index and route-load ranking, draws `seed` from `rng` and
/// delegates to the index form.
ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options = {});

}  // namespace ftr
