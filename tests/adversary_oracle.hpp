// Test oracles for the check's two adversarial units: the plain serial
// searchers, one evaluator call per fault set. Sample i is drawn from
// Rng::stream(seed, i); restart i climbs with Rng::stream(seed, i) from
// seeds[i] or a uniform sample, one first-improvement swap per step. They
// share no code with the library's batched paths (a kSweepSampled unit's
// lane blocks, the lockstep speculative climbs), which is what makes them
// useful oracles: every SweepPartial field they fill must match.
//
// Also the adapter that turns a per-set evaluator (the toy landscapes, the
// one-shot surviving_diameter) into the library's batch FaultEvaluator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "fault/work_unit.hpp"
#include "fault/srg_engine.hpp"
#include "graph/bfs.hpp"

namespace ftr {

/// Maps one fault set to a diameter.
using SetEvaluator = std::function<std::uint32_t(const std::vector<Node>&)>;

/// A factory of batch evaluators that call `eval` once per set, in order;
/// `eval` must be safe to call from several threads at once.
inline FaultEvaluatorFactory batch_factory(SetEvaluator eval) {
  return [eval = std::move(eval)]() -> FaultEvaluator {
    return [eval](std::span<const std::vector<Node>> sets, std::uint32_t* d) {
      for (std::size_t i = 0; i < sets.size(); ++i) d[i] = eval(sets[i]);
    };
  };
}

/// A per-set evaluator over a scratch of its own (the bitset kernel), for
/// one thread at a time.
inline SetEvaluator srg_set_evaluator(const SrgIndex& index) {
  auto scratch = std::make_shared<SrgScratch>(index);
  return [scratch](const std::vector<Node>& faults) {
    return scratch->surviving_diameter(faults);
  };
}

/// Serial sampling over sample indices [begin, end): what a kSweepSampled
/// unit without delivery returns, histogram included.
inline SweepPartial sampled_oracle(std::size_t n, std::size_t f,
                                   const SetEvaluator& eval, std::uint64_t seed,
                                   std::uint64_t begin, std::uint64_t end) {
  SweepPartial p;
  for (std::uint64_t i = begin; i < end; ++i) {
    Rng rng = Rng::stream(seed, i);
    const auto sample = rng.sample(n, f);
    std::vector<Node> faults(sample.begin(), sample.end());
    const std::uint32_t d = eval(faults);
    ++p.sets;
    if (d == kUnreachable) {
      ++p.disconnected;
    } else {
      if (d >= p.diameter_histogram.size()) {
        p.diameter_histogram.resize(d + 1, 0);
      }
      ++p.diameter_histogram[d];
    }
    if (!p.have_worst || d > p.worst_diameter) {
      p.have_worst = true;
      p.worst_diameter = d;
      p.worst_index = i;
      p.worst_faults = std::move(faults);
    }
  }
  return p;
}

/// One serial hill-climbing run from `current`; returns the local optimum.
inline std::pair<std::vector<Node>, std::uint32_t> climb(
    std::size_t n, const SetEvaluator& eval, std::vector<Node> current,
    std::size_t max_steps, Rng& rng, std::uint64_t& evaluations) {
  std::uint32_t best = eval(current);
  ++evaluations;
  for (std::size_t step = 0; step < max_steps; ++step) {
    bool improved = false;
    // Try swaps in a random order; accept the first strict improvement.
    const auto slot_order = rng.permutation(current.size());
    for (std::size_t si : slot_order) {
      const Node old = current[si];
      const auto cand_order = rng.permutation(n);
      for (std::size_t cand : cand_order) {
        const Node nv = static_cast<Node>(cand);
        if (std::find(current.begin(), current.end(), nv) != current.end())
          continue;
        current[si] = nv;
        const std::uint32_t d = eval(current);
        ++evaluations;
        if (d > best) {
          best = d;
          improved = true;
          break;
        }
        current[si] = old;
        // Cap the inner scan: full n per slot is wasteful on big graphs.
        if (evaluations % 64 == 0 && cand > n / 2) break;
      }
      if (improved) break;
    }
    if (!improved) break;
    if (best == kUnreachable) break;  // cannot get worse than disconnected
  }
  return {std::move(current), best};
}

/// Serial hill-climbing over restarts 0 .. restarts - 1; a restart reaching
/// kUnreachable stops the search. `sets` counts evaluations and
/// worst_index is the winning restart.
inline SweepPartial hillclimb_oracle(
    std::size_t n, std::size_t f, const SetEvaluator& eval, std::uint64_t seed,
    std::uint64_t restarts, std::size_t max_steps,
    const std::vector<std::vector<Node>>& seeds = {}) {
  SweepPartial p;
  for (std::uint64_t restart = 0; restart < restarts; ++restart) {
    Rng rng = Rng::stream(seed, restart);
    std::vector<Node> start;
    if (restart < seeds.size()) {
      start = seeds[static_cast<std::size_t>(restart)];
    } else {
      const auto sample = rng.sample(n, f);
      start.assign(sample.begin(), sample.end());
    }
    std::uint64_t evaluations = 0;
    auto [faults, d] =
        climb(n, eval, std::move(start), max_steps, rng, evaluations);
    p.sets += evaluations;
    if (!p.have_worst || d > p.worst_diameter) {
      p.have_worst = true;
      p.worst_diameter = d;
      p.worst_index = restart;
      p.worst_faults = std::move(faults);
    }
    if (d == kUnreachable) break;
  }
  return p;
}

}  // namespace ftr
