// Worst-case fault search. The paper's (d, f)-tolerance quantifies over ALL
// fault sets of size <= f; we reproduce that with
//  * exhaustive Gray-order enumeration when C(n, f) fits a budget (ground
//    truth),
//  * randomized sampling plus hill-climbing local search otherwise
//    (1-swap neighborhood, restarts seeded uniformly and by route load).
//
// Each searcher has one form: it scans one contiguous window [begin, end)
// of its GLOBAL task space (Gray subset ranks, sample indices, restart
// indices), fans the window's chunks across exec.threads, and returns the
// window's AdvPartial. Randomized searchers draw task i from the
// counter-based Rng::stream(seed, i), and chunks merge in index order with
// the serial tie-break (first set reaching the max wins), so the result —
// witness and evaluation count included — is bit-identical for any thread
// count, any chunking, and any split of the space into windows. A
// whole-space search is the window [0, total). Executor telemetry
// accumulates into *executor when given.
//
// The sampled and hill-climbing searchers are generic over an evaluator
// factory, so they work for single-route tables, multiroute tables, and
// synthetic landscapes alike; execute_adv_unit runs any adversary UnitSpec
// against an SrgIndex. Both hand their sets to the evaluator in batches, so
// the canonical evaluator (srg_evaluator_factory) runs them as packed lane
// blocks (SrgScratch::evaluate_sets):
//
//  * the sampled searcher draws a chunk's samples and evaluates them in
//    batches of up to kMaxLaneWidth; a one-thread window is one chunk;
//  * the hill-climber runs a chunk's restarts in lockstep rounds. Each
//    round, every live climb plans its whole next step — the candidates
//    the serial first-improvement scan would try if none improved, with a
//    copy of its Rng after each slot's draw — and all plans go through
//    one evaluator call. Each climb then takes the first candidate that
//    improves, counts the candidates up to it, and restores the Rng copy
//    taken after that candidate's slot; with no improvement it counts
//    them all and ends. This is exact, not an approximation: until the
//    first improvement the serial scan's current set, its member skip,
//    its Rng draws and its scan cap (which reads only the evaluation
//    counter) never depend on a diameter, so the plan's prefix IS the
//    serial scan. The candidates past the first improvement are evaluated
//    speculatively, never counted and never read.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/parallel.hpp"
#include "fault/srg_engine.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"

namespace ftr {

/// Maps a batch of fault sets to the diameters of their surviving route
/// graphs: d[i] for sets[i], i < sets.size(). The result for a set must
/// not depend on the other sets of its batch or on how a search batches
/// its sets, since the searchers pick batches by thread count and by the
/// lockstep schedule above.
using FaultEvaluator = std::function<void(
    std::span<const std::vector<Node>> sets, std::uint32_t* d)>;

/// Mints a fresh evaluator for one worker chunk. Each returned evaluator is
/// used from exactly one thread at a time, so it may own mutable scratch.
using FaultEvaluatorFactory = std::function<FaultEvaluator()>;

/// The canonical factory: one SrgScratch per evaluator over the shared
/// `index`, which must outlive every evaluator minted. Each batch runs
/// through SrgScratch::evaluate_sets.
FaultEvaluatorFactory srg_evaluator_factory(const SrgIndex& index);

/// A mergeable fragment of an adversary search over one ordered window of
/// the task space. This is the merge authority shared by the in-process
/// chunked scans, the check decision tree, and the distributed
/// coordinator: all fold windows with merge_adversary_partials, so no two
/// paths can drift.
struct AdvPartial {
  std::uint32_t d = 0;          // worst diameter seen in this window
  std::vector<Node> faults;     // its witness
  std::uint64_t evaluations = 0;
  bool any = false;             // a candidate has been recorded
  bool stopped = false;         // this window hit its early-stop condition
};

/// Folds `next` into `into` with the serial scan's semantics. PRECONDITION:
/// `next` covers task indices strictly after everything already folded into
/// `into`. If `into` has stopped, `next` is discarded entirely — its
/// evaluations are NOT counted, reproducing the serial early break (work
/// past the stop point never happened). Otherwise evaluations add, a
/// strictly greater diameter replaces the witness (equal keeps the earlier
/// window's, the serial tie-break), and next's stop propagates. Under the
/// index-order discipline this is associative: any contiguous partition of
/// the task space — threads, chunks, worker processes — folds to the same
/// result.
void merge_adversary_partials(AdvPartial& into, const AdvPartial& next);

/// Ground truth over Gray ranks [begin_rank, end_rank) of the f-subsets of
/// the index's nodes: each worker walks the enumeration from its chunk's
/// rank, evaluating packed lane blocks. `stop_above`, if nonzero, stops at
/// the first set whose diameter exceeds it. The witness is the first
/// maximum in Gray order.
AdvPartial exhaustive_worst_faults_gray(const SrgIndex& index, std::size_t f,
                                        std::uint64_t begin_rank,
                                        std::uint64_t end_rank,
                                        const ExecPolicy& exec = {},
                                        std::uint32_t stop_above = 0,
                                        ExecutorStats* executor = nullptr);

/// Uniform random sampling over sample indices [begin_index, end_index);
/// sample i is always drawn from Rng::stream(seed, i). One chunk per
/// worker, in whole lane blocks.
AdvPartial sampled_worst_faults(std::size_t n, std::size_t f,
                                const FaultEvaluatorFactory& make_eval,
                                std::uint64_t seed, std::uint64_t begin_index,
                                std::uint64_t end_index,
                                const ExecPolicy& exec = {},
                                ExecutorStats* executor = nullptr);

/// Hill-climbing over restart indices [begin_restart, end_restart): restart
/// i starts from seeds[i] when i < seeds.size() (informed starts, e.g. the
/// busiest nodes), otherwise from a uniform sample, and climbs with
/// Rng::stream(seed, i) — repeatedly swapping one fault for one non-fault,
/// keeping the first strict improvement of each step, until no swap helps
/// or `max_steps` runs out. A restart reaching kUnreachable stops the
/// search: later restarts are never counted. Each worker chunk climbs its
/// share of the restarts in lockstep (see the top of this file).
AdvPartial hillclimb_worst_faults(std::size_t n, std::size_t f,
                                  const FaultEvaluatorFactory& make_eval,
                                  std::uint64_t seed,
                                  std::uint64_t begin_restart,
                                  std::uint64_t end_restart,
                                  std::size_t max_steps,
                                  const std::vector<std::vector<Node>>& seeds = {},
                                  const ExecPolicy& exec = {},
                                  ExecutorStats* executor = nullptr);

/// Runs one adversary unit (kAdvGray / kAdvSampled / kAdvClimb) against
/// `index`: the single execution authority behind the in-process check,
/// dist workers, and the coordinator's inline fallback.
AdvPartial execute_adv_unit(const SrgIndex& index, const UnitSpec& unit);

/// Executes adversary units for the check decision tree: execute_adv_unit
/// in-process, or a process pool's splitter (DistSweepPool::run_adv).
using AdvUnitRunner = std::function<AdvPartial(const UnitSpec&)>;

}  // namespace ftr
