// A work unit: one window [begin, end) of one sweep's GLOBAL set-index
// space (subset ranks, sample indices, set indices) plus the knobs that
// run it, and the SweepPartial it yields. Every top-level sweep — the CLI
// verb, a tolerance check's sweep, a serve request — plans its work as
// units, and a unit runs the same whether the caller executes it
// in-process or a forked worker executes it after a trip over the wire
// (dist/wire.hpp encodes both). Because indices are global and
// merge_sweep_partials is order-free, re-chunking a unit, or folding its
// pieces as they finish, can never change the result.
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
  // sampled), whose work the sweep kinds above do, and 7 the hill-climb,
  // which now runs in process (fault/adversary.hpp). Decoders reject them.
};

inline const char* unit_kind_name(UnitKind kind) {
  switch (kind) {
    case UnitKind::kSweepGray: return "sweep-gray";
    case UnitKind::kSweepSampled: return "sweep-sampled";
    case UnitKind::kSweepExplicit: return "sweep-explicit";
  }
  return "unknown";
}

struct UnitSpec {
  UnitKind kind = UnitKind::kSweepGray;
  /// The coordinator's name for the unit: results come back keyed by it,
  /// and each id must merge exactly once.
  std::uint64_t unit_id = 0;
  std::uint32_t f = 0;
  std::uint64_t begin = 0;  // GLOBAL window [begin, end): subset ranks,
  std::uint64_t end = 0;    // sample indices or set indices
  std::uint64_t seed = 0;   // stream root (sampling, delivery)
  std::uint64_t delivery_pairs = 0;
  /// How the unit executes: threads and batch size. Pure throughput knobs;
  /// units stay result-invariant across both.
  ExecPolicy exec;
  std::vector<std::vector<Node>> sets;  // kSweepExplicit: sets[i] is set
                                        // begin + i
};

/// A mergeable fragment of a unit's result, folded over any set of
/// indices of its task space. This is the single merge authority — the
/// executor's chunks, the streaming feed and the distributed coordinator
/// all combine pieces with merge_sweep_partials.
///
/// Every field is exact (integer hop totals, not means), and the worst
/// witness is the greatest diameter at the lowest GLOBAL index
/// (worst_index), so the merge is commutative and associative: any
/// partition of a unit — chunks, windows, units, worker processes — folded
/// in any order gives a bit-identical partial. A hill-climb
/// (fault/adversary.hpp) returns one too, with `sets` counting its
/// evaluations and worst_index its winning restart.
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
};

/// Merges `next` into `into`. Both must cover disjoint indices of the same
/// index space; the order of the merges does not matter. kUnreachable
/// compares greater than every finite diameter, so disconnection needs no
/// special casing.
void merge_sweep_partials(SweepPartial& into, const SweepPartial& next);

}  // namespace ftr
