// The (d, f)-tolerance verification harness: the bridge between the paper's
// theorems and the benchmark tables. Given a routing and a claimed bound, it
// measures the worst surviving diameter over fault sets of size f and
// reports claimed vs. measured.
//
// One decision tree answers every check: when C(n, f) fits the exhaustive
// budget it plans one kAdvGray unit over the whole Gray rank space (ground
// truth; the witness is the first worst set in Gray order), otherwise a
// kAdvSampled unit plus a route-load-seeded kAdvClimb unit (an adversarial
// lower bound). The units run through ToleranceCheckOptions::runner — in
// process by default, or split over a worker pool — and fold with
// merge_adversary_partials. The report (verdict, witness, evaluation count)
// is bit-identical for any runner, thread count, kernel, or lane width.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "graph/graph.hpp"
#include "routing/multi_route_table.hpp"
#include "routing/route_table.hpp"

namespace ftr {

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
  std::uint64_t exhaustive_budget = 20000;
  /// Otherwise: this many uniform samples ...
  std::size_t samples = 200;
  /// ... plus hill-climbing with this many restarts and step budget.
  std::size_t hillclimb_restarts = 6;
  std::size_t hillclimb_steps = 24;
  /// Extra seed sets (e.g. concentrator-targeted) for the hill-climber.
  std::vector<std::vector<Node>> seeds;
  /// How each unit executes (see common/exec_policy.hpp): threads fan the
  /// fault sets across workers, kernel/lanes drive the evaluators (kAuto
  /// runs the exhaustive Gray scan packed and the sampled /
  /// hill-climbing evaluators on the bitset kernel), executor picks the
  /// chunk scheduler. The report is identical for any value of any of it.
  ExecPolicy exec;
  /// Runs the planned units; empty = in-process (execute_adv_unit over the
  /// check's index). `check --workers N` passes DistSweepPool::run_adv.
  AdvUnitRunner runner;
};

/// Worst-case check for exactly f faults (the paper's bounds are monotone
/// in f for the exhaustive case; sweep callers vary f explicitly).
ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options = {});

ToleranceReport check_tolerance(const MultiRouteTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options = {});

/// Index-handle forms: run the same check against a PREBUILT shared
/// preprocessing instead of constructing an SrgIndex per call. This is what
/// the serving layer's table registry hands out, so repeated checks against
/// the same table pay the preprocessing once. `index` must have been built
/// from `table`; the report is bit-identical to the table-only overloads
/// (which now delegate here after building a fresh index).
ToleranceReport check_tolerance(const RoutingTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng,
                                const ToleranceCheckOptions& options = {});

ToleranceReport check_tolerance(const MultiRouteTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng,
                                const ToleranceCheckOptions& options = {});

/// The decision tree itself, over a prebuilt index with an explicit search
/// seed. The table-level overloads add route-load hill-climber seeds and
/// draw `seed` from their Rng, then delegate here.
ToleranceReport check_tolerance(const SrgIndex& index, std::uint32_t f,
                                std::uint32_t claimed_bound,
                                std::uint64_t seed,
                                const ToleranceCheckOptions& options = {});

}  // namespace ftr
