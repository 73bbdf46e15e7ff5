// The hill-climbing adversary: the informed half of the tolerance check
// past the exhaustive budget. The paper's (d, f)-tolerance quantifies over
// ALL fault sets of size <= f; the check (fault/tolerance_check.hpp) runs
// that worst case as one sweep unit — a Gray-order exhaustive unit when
// C(n, f) fits a budget (ground truth), otherwise a sampled unit — plus,
// in the sampled case, the climb below (1-swap neighborhood, restarts
// seeded uniformly and by route load). A climb is a few restarts of a few
// dozen steps, so it runs in process and never becomes a work unit.
//
// The climb fans its restarts' chunks across exec.threads and returns one
// SweepPartial. Restart i draws from the counter-based Rng::stream(seed,
// i), and the chunks fold in restart order up to the first restart that
// disconnects (the serial search stops there), so the result — witness
// and evaluation count included — is bit-identical for any thread count
// and any chunking.
//
// The climb is generic over an evaluator factory, so it works for real
// tables and synthetic landscapes alike. It hands its sets to the
// evaluator in batches, so the canonical evaluator (srg_evaluator_factory)
// runs them as packed lane blocks (SrgScratch::evaluate_sets): a chunk's
// restarts climb in lockstep rounds. Each round, every live climb plans
// its whole next step — the candidates the serial first-improvement scan
// would try if none improved, with a copy of its Rng after each slot's
// draw — and all plans go through one evaluator call. Each climb then
// takes the first candidate that improves, counts the candidates up to
// it, and restores the Rng copy taken after that candidate's slot; with no
// improvement it counts them all and ends. This is exact, not an
// approximation: until the first improvement the serial scan's current
// set, its member skip, its Rng draws and its scan cap (which reads only
// the evaluation counter) never depend on a diameter, so the plan's prefix
// IS the serial scan. The candidates past the first improvement are
// evaluated speculatively, never counted and never read.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/exec_policy.hpp"
#include "fault/srg_engine.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"

namespace ftr {

/// Maps a batch of fault sets to the diameters of their surviving route
/// graphs: d[i] for sets[i], i < sets.size(). The result for a set must
/// not depend on the other sets of its batch or on how a search batches
/// its sets, since the climb picks batches by thread count and by the
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

/// Hill-climbing over restarts 0 .. restarts - 1: restart i starts from
/// seeds[i] when i < seeds.size() (informed starts, e.g. the busiest
/// nodes), otherwise from a uniform sample, and climbs with
/// Rng::stream(seed, i) — repeatedly swapping one fault for one non-fault,
/// keeping the first strict improvement of each step, until no swap helps
/// or `max_steps` runs out. The partial's `sets` counts the evaluations
/// and worst_index is the winning restart. A restart reaching kUnreachable
/// stops the search: later restarts are never counted. Each worker chunk
/// climbs its share of the restarts in lockstep (see the top of this
/// file).
SweepPartial hillclimb_worst_faults(std::size_t n, std::size_t f,
                                    const FaultEvaluatorFactory& make_eval,
                                    std::uint64_t seed, std::uint64_t restarts,
                                    std::size_t max_steps,
                                    const std::vector<std::vector<Node>>& seeds = {},
                                    const ExecPolicy& exec = {});

}  // namespace ftr
