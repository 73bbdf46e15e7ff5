// A work unit: one window [begin, end) of one sweep's or hill-climb's
// GLOBAL task space (subset ranks, sample indices, set indices, restart
// indices) plus the knobs that run it, and the SweepPartial it yields.
// Every top-level operation — a sweep, a tolerance check, a serve request —
// plans its work as units, and a unit runs the same whether the caller
// executes it in-process or a forked worker executes it after a trip over
// the wire (dist/wire.hpp encodes both). Because indices are global and
// merge_sweep_partials folds in index order, re-chunking a unit can never
// change the result.
#pragma once

#include <cstdint>
#include <vector>

#include "common/exec_policy.hpp"
#include "graph/graph.hpp"

namespace ftr {

// Every kind runs through execute_unit (analysis/fault_sweep).
enum class UnitKind : std::uint32_t {
  kSweepGray = 1,     // Gray subset ranks, unranked per chunk
  kSweepSampled = 2,  // sample indices; set i is Rng::stream(seed, i)
  kSweepExplicit = 3, // literal sets, exactly end - begin of them (feeds)
  // 4, 5 and 6 were retired adversary scans (Gray, lexicographic and
  // sampled); the sweep kinds above do their work, and decoders reject
  // them.
  kAdvClimb = 7,      // hillclimb_worst_faults over restart indices
};

inline const char* unit_kind_name(UnitKind kind) {
  switch (kind) {
    case UnitKind::kSweepGray: return "sweep-gray";
    case UnitKind::kSweepSampled: return "sweep-sampled";
    case UnitKind::kSweepExplicit: return "sweep-explicit";
    case UnitKind::kAdvClimb: return "adv-climb";
  }
  return "unknown";
}

struct UnitSpec {
  UnitKind kind = UnitKind::kSweepGray;
  /// Merge position: results come back keyed by it, and the coordinator
  /// folds partials in unit_id order (the merge-precondition discipline).
  std::uint64_t unit_id = 0;
  std::uint32_t f = 0;
  std::uint64_t begin = 0;  // GLOBAL window [begin, end): subset ranks,
  std::uint64_t end = 0;    // sample indices, set indices, restart indices
  std::uint64_t seed = 0;   // stream root (sampling, delivery, climbing)
  std::uint64_t delivery_pairs = 0;  // sweep units only
  std::uint64_t max_steps = 0;       // kAdvClimb step budget
  /// How the unit executes: threads and batch size. Pure throughput knobs;
  /// units stay result-invariant across both.
  ExecPolicy exec;
  std::vector<std::vector<Node>> sets;         // kSweepExplicit: sets[i] is
                                               // set begin + i
  std::vector<std::vector<Node>> climb_seeds;  // kAdvClimb informed starts
                                               // (GLOBAL restart indexing)
};

/// A mergeable fragment of a unit's result, folded over one contiguous
/// index range of its task space. This is the single merge authority — the
/// executor's chunks, the streaming feed, the tolerance check and the
/// distributed coordinator all combine ranges with merge_sweep_partials.
///
/// Every field is exact (integer hop totals, not means), which makes the
/// merge strictly associative: any partition of a unit into contiguous
/// ranges — chunks, windows, units, worker processes — folds to
/// bit-identical aggregates. worst_index is the GLOBAL index of the worst
/// witness (a set index, or a kAdvClimb unit's restart index).
///
/// A kAdvClimb partial counts its evaluations in `sets`, leaves the
/// histogram, `disconnected` and the delivery fields at zero, and sets
/// `stopped` when a restart disconnects: the search ends there. Sweeps
/// never stop.
struct SweepPartial {
  std::uint64_t sets = 0;
  std::vector<std::uint64_t> diameter_histogram;
  std::uint64_t disconnected = 0;

  bool have_worst = false;
  std::uint32_t worst_diameter = 0;
  std::uint64_t worst_index = 0;
  std::vector<Node> worst_faults;

  std::uint64_t pairs_sampled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t route_hops_total = 0;  // exact; the mean is derived once
  std::uint32_t max_route_hops = 0;
  std::uint64_t max_edge_hops = 0;

  bool stopped = false;  // this range hit its early stop
};

/// Merges `next` into `into`. PRECONDITION: `next` covers task indices
/// strictly after everything already folded into `into` — the worst-witness
/// tie-break ("earlier index wins on equal diameter") is encoded as
/// "strictly greater replaces", which is only correct for index-ordered
/// merging. Once `into` has stopped, `next` is discarded whole, its sets
/// uncounted: the serial search never reached it. Under that discipline
/// the operation is associative, so any contiguous partition folds to the
/// same result.
void merge_sweep_partials(SweepPartial& into, const SweepPartial& next);

}  // namespace ftr
