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
// against an SrgIndex.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.hpp"
#include "fault/srg_engine.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"

namespace ftr {

/// Maps a fault set to the diameter of the surviving route graph.
using FaultEvaluator = std::function<std::uint32_t(const std::vector<Node>&)>;

/// Mints a fresh evaluator for one worker chunk. Each returned evaluator is
/// used from exactly one thread at a time, so it may own mutable scratch.
using FaultEvaluatorFactory = std::function<FaultEvaluator()>;

/// The canonical factory: one SrgScratch (running `kernel`) per evaluator
/// over the shared `index`, which must outlive every evaluator minted.
FaultEvaluatorFactory srg_evaluator_factory(const SrgIndex& index,
                                            SrgKernel kernel);

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
/// rank, evaluating packed lane blocks when exec resolves to kPacked and
/// one set at a time otherwise. `stop_above`, if nonzero, stops at the
/// first set whose diameter exceeds it. The witness is the first maximum in Gray order.
AdvPartial exhaustive_worst_faults_gray(const SrgIndex& index, std::size_t f,
                                        std::uint64_t begin_rank,
                                        std::uint64_t end_rank,
                                        const ExecPolicy& exec = {},
                                        std::uint32_t stop_above = 0,
                                        ExecutorStats* executor = nullptr);

/// Uniform random sampling over sample indices [begin_index, end_index);
/// sample i is always drawn from Rng::stream(seed, i).
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
/// keeping strict improvements, until no swap helps or `max_steps` runs
/// out. A restart reaching kUnreachable stops the search.
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
