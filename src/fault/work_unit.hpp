// A work unit: one window [begin, end) of one sweep's or adversary search's
// GLOBAL task space (subset ranks, sample indices, restart indices, set
// indices) plus the knobs that run it. Every top-level operation plans its
// work as units, and a unit runs the same whether the caller executes it
// in-process or a forked worker executes it after a trip over the wire
// (dist/wire.hpp encodes it). Because indices are global and the merges
// fold in index order, re-chunking a unit can never change the result.
#pragma once

#include <cstdint>
#include <vector>

#include "common/exec_policy.hpp"
#include "graph/graph.hpp"

namespace ftr {

enum class UnitKind : std::uint32_t {
  // Every sweep kind runs through execute_sweep_unit (analysis/fault_sweep).
  kSweepGray = 1,     // Gray subset ranks, unranked per chunk
  kSweepSampled = 2,  // sample indices; set i is Rng::stream(seed, i)
  kSweepExplicit = 3, // literal sets, exactly end - begin of them (feeds)
  kAdvGray = 4,       // exhaustive_worst_faults_gray over Gray subset ranks
  // 5 was the retired lexicographic exhaustive scan; decoders reject it.
  kAdvSampled = 6,    // sampled_worst_faults over sample indices
  kAdvClimb = 7,      // hillclimb_worst_faults over restart indices
};

inline const char* unit_kind_name(UnitKind kind) {
  switch (kind) {
    case UnitKind::kSweepGray: return "sweep-gray";
    case UnitKind::kSweepSampled: return "sweep-sampled";
    case UnitKind::kSweepExplicit: return "sweep-explicit";
    case UnitKind::kAdvGray: return "adv-gray";
    case UnitKind::kAdvSampled: return "adv-sampled";
    case UnitKind::kAdvClimb: return "adv-climb";
  }
  return "unknown";
}

inline bool unit_is_sweep(UnitKind kind) {
  return kind == UnitKind::kSweepGray || kind == UnitKind::kSweepSampled ||
         kind == UnitKind::kSweepExplicit;
}

struct UnitSpec {
  UnitKind kind = UnitKind::kSweepGray;
  /// Merge position: results come back keyed by it, and the coordinator
  /// folds partials in unit_id order (the merge-precondition discipline).
  std::uint64_t unit_id = 0;
  std::uint32_t f = 0;
  std::uint64_t begin = 0;  // GLOBAL window [begin, end): subset ranks,
  std::uint64_t end = 0;    // sample indices, restart indices, set indices
  std::uint64_t seed = 0;   // stream root (sampling, delivery, climbing)
  std::uint64_t delivery_pairs = 0;  // sweep units only
  std::uint64_t max_steps = 0;       // kAdvClimb step budget
  std::uint32_t stop_above = 0;      // kAdvGray early-stop threshold
  /// How the unit executes: threads and batch size. Pure throughput knobs;
  /// units stay result-invariant across both.
  ExecPolicy exec;
  std::vector<std::vector<Node>> sets;         // kSweepExplicit: sets[i] is
                                               // set begin + i
  std::vector<std::vector<Node>> climb_seeds;  // kAdvClimb informed starts
                                               // (GLOBAL restart indexing)
};

}  // namespace ftr
