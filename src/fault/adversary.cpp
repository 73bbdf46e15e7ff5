#include "fault/adversary.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"

namespace ftr {

void merge_adversary_partials(AdvPartial& into, const AdvPartial& next) {
  // Once a slice has stopped, everything after it in task order is work the
  // serial scan never did: discard it whole, evaluations included.
  if (into.stopped) return;
  into.evaluations += next.evaluations;
  if (next.any && (!into.any || next.d > into.d)) {
    into.d = next.d;
    into.faults = next.faults;
    into.any = true;
  }
  into.stopped = next.stopped;
}

namespace {

// Lock-free "minimum chunk that stopped": later chunks use it to skip work
// that the ordered merge would discard anyway.
void note_stop(std::atomic<std::size_t>& first_stop, std::size_t chunk) {
  std::size_t cur = first_stop.load(std::memory_order_relaxed);
  while (chunk < cur && !first_stop.compare_exchange_weak(
                            cur, chunk, std::memory_order_relaxed)) {
  }
}

// The rank-chunked scaffolding shared by every searcher: chunk the global
// window [begin, end) (`grain` tasks per chunk, 0 = auto), run
// `scan(partial, chunk_begin, chunk_end, aborted)` per chunk with GLOBAL
// indices (the scan sets partial.stopped when it early-stops), skip or
// mid-chunk-abort chunks past the first stopped one, and fold the chunk
// partials in rank order via merge_adversary_partials — the same merge the
// distributed coordinator applies across worker units, so inner chunking
// and outer unit boundaries are interchangeable.
template <typename ChunkScan>
AdvPartial chunked_rank_scan(std::uint64_t begin, std::uint64_t end,
                             const ExecPolicy& policy, std::size_t grain,
                             ExecutorStats* executor, const ChunkScan& scan) {
  const unsigned threads = policy.resolved_threads();
  const auto count = static_cast<std::size_t>(end - begin);
  if (grain == 0) grain = sweep_grain(count, threads);
  const std::size_t chunks = num_chunks(count, grain);
  std::vector<AdvPartial> partials(chunks);
  std::atomic<std::size_t> first_stop{chunks};

  ExecutorStats stats;
  parallel_for_chunks(
      count, threads, grain,
      [&](std::size_t chunk, std::size_t c_begin, std::size_t c_end) {
        // A chunk past an already-stopped one will be discarded by the
        // ordered merge, so skipping — or, via `aborted`, bailing out
        // mid-scan once a LOWER chunk stops — is a pure optimization. The
        // per-rank poll matters under the work-stealing executor: workers
        // start deep in their own partitions rather than in ascending
        // chunk order, so without it a low-rank stop would be discovered
        // only after every in-flight high chunk ground to completion.
        const auto aborted = [&] {
          return chunk > first_stop.load(std::memory_order_relaxed);
        };
        if (aborted()) return;
        AdvPartial& p = partials[chunk];
        scan(p, begin + c_begin, begin + c_end, aborted);
        if (p.stopped) note_stop(first_stop, chunk);
      },
      &stats);
  if (executor != nullptr) executor->accumulate(stats);

  AdvPartial acc;
  for (const auto& p : partials) {
    merge_adversary_partials(acc, p);
    if (acc.stopped) break;
  }
  return acc;
}

}  // namespace

FaultEvaluatorFactory srg_evaluator_factory(const SrgIndex& index) {
  return [&index]() {
    auto scratch = std::make_shared<SrgScratch>(index);
    return [scratch](const std::vector<Node>& faults) {
      return scratch->surviving_diameter(faults);
    };
  };
}

AdvPartial exhaustive_worst_faults_gray(const SrgIndex& index, std::size_t f,
                                        std::uint64_t begin_rank,
                                        std::uint64_t end_rank,
                                        const ExecPolicy& exec,
                                        std::uint32_t stop_above,
                                        ExecutorStats* executor) {
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_binomial(n, f);
  FTR_EXPECTS(begin_rank <= end_rank && end_rank <= total);
  // Up to lane_width() Gray-adjacent sets per bit-parallel pass. The lanes
  // of each block are consumed in rank order, so the running best, the
  // evaluation count, and the early-stop point are exactly the serial
  // scan's — whatever the block width; the witness is unranked from the
  // winning rank at chunk end (sorted ascending, like the enumerator's
  // current()). aborted() is polled per block instead of per rank — a pure
  // optimization either way, since the ordered merge discards aborted
  // partials. The auto grain rounds up to a multiple of the widest lane
  // width, so only the window's last chunk ends in a partial block.
  const auto grain = static_cast<std::size_t>(lane_aligned(sweep_grain(
      static_cast<std::size_t>(end_rank - begin_rank), exec.threads)));
  return chunked_rank_scan(
      begin_rank, end_rank, exec, grain, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        SrgScratch scratch(index);
        const std::uint64_t lanes = scratch.lane_width();
        GraySubsetEnumerator e(n, f, begin);
        SrgScratch::Result res[kMaxLaneWidth];
        std::uint64_t best_rank = begin;
        std::uint64_t r = begin;
        while (r < end) {
          if (aborted()) return;
          const auto cnt = static_cast<std::size_t>(
              std::min<std::uint64_t>(lanes, end - r));
          scratch.evaluate_gray_block(e, cnt, res);
          for (std::size_t i = 0; i < cnt; ++i) {
            const std::uint32_t d = res[i].diameter;
            ++p.evaluations;
            if (!p.any || d > p.d) {
              p.any = true;
              p.d = d;
              best_rank = r + i;
            }
            if (stop_above != 0 && d > stop_above) {
              p.stopped = true;
              break;
            }
          }
          if (p.stopped) break;
          r += cnt;
          if (r < end) e.advance();
        }
        if (p.any) {
          const auto worst = gray_subset_at_rank(n, f, best_rank);
          p.faults.assign(worst.begin(), worst.end());
        }
      });
}

AdvPartial sampled_worst_faults(std::size_t n, std::size_t f,
                                const FaultEvaluatorFactory& make_eval,
                                std::uint64_t seed, std::uint64_t begin_index,
                                std::uint64_t end_index,
                                const ExecPolicy& exec,
                                ExecutorStats* executor) {
  FTR_EXPECTS(f <= n);
  FTR_EXPECTS(begin_index <= end_index);
  return chunked_rank_scan(
      begin_index, end_index, exec, 0, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        (void)aborted;  // sampling never early-stops
        const FaultEvaluator eval = make_eval();
        for (std::uint64_t i = begin; i < end; ++i) {
          // Sample i is a pure function of (seed, i): thread-count-proof
          // AND partition-proof.
          Rng rng = Rng::stream(seed, i);
          const auto sample = rng.sample(n, f);
          std::vector<Node> faults(sample.begin(), sample.end());
          const std::uint32_t d = eval(faults);
          ++p.evaluations;
          if (!p.any || d > p.d) {
            p.any = true;
            p.d = d;
            p.faults = std::move(faults);
          }
        }
      });
}

namespace {

// One hill-climbing run from `start`; returns the local optimum.
std::pair<std::vector<Node>, std::uint32_t> climb(
    std::size_t n, const FaultEvaluator& eval, std::vector<Node> current,
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

}  // namespace

AdvPartial hillclimb_worst_faults(std::size_t n, std::size_t f,
                                  const FaultEvaluatorFactory& make_eval,
                                  std::uint64_t seed,
                                  std::uint64_t begin_restart,
                                  std::uint64_t end_restart,
                                  std::size_t max_steps,
                                  const std::vector<std::vector<Node>>& seeds,
                                  const ExecPolicy& exec,
                                  ExecutorStats* executor) {
  FTR_EXPECTS(f <= n);
  FTR_EXPECTS(begin_restart <= end_restart);
  // One restart per chunk: climbs dominate the cost and balance poorly, so
  // the finest grain gives the scheduler the most room.
  return chunked_rank_scan(
      begin_restart, end_restart, exec, 1, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        const FaultEvaluator eval = make_eval();
        for (std::uint64_t restart = begin; restart < end; ++restart) {
          if (aborted()) return;
          Rng rng = Rng::stream(seed, restart);
          std::vector<Node> start;
          if (restart < seeds.size()) {
            start = seeds[static_cast<std::size_t>(restart)];
          } else {
            const auto sample = rng.sample(n, f);
            start.assign(sample.begin(), sample.end());
          }
          FTR_EXPECTS(start.size() == f);
          std::uint64_t evaluations = 0;
          auto [faults, d] =
              climb(n, eval, std::move(start), max_steps, rng, evaluations);
          p.evaluations += evaluations;
          if (!p.any || d > p.d) {
            p.any = true;
            p.d = d;
            p.faults = std::move(faults);
          }
          // Cannot get worse than disconnected: the search stops here.
          if (d == kUnreachable) {
            p.stopped = true;
            return;
          }
        }
      });
}

AdvPartial execute_adv_unit(const SrgIndex& index, const UnitSpec& unit) {
  const std::size_t n = index.num_nodes();
  switch (unit.kind) {
    case UnitKind::kAdvGray:
      return exhaustive_worst_faults_gray(index, unit.f, unit.begin, unit.end,
                                          unit.exec, unit.stop_above);
    case UnitKind::kAdvSampled:
      return sampled_worst_faults(
          n, unit.f, srg_evaluator_factory(index), unit.seed,
          unit.begin, unit.end, unit.exec);
    case UnitKind::kAdvClimb:
      return hillclimb_worst_faults(
          n, unit.f, srg_evaluator_factory(index), unit.seed,
          unit.begin, unit.end, static_cast<std::size_t>(unit.max_steps),
          unit.climb_seeds, unit.exec);
    default:
      FTR_EXPECTS_MSG(false, "unit kind " << unit_kind_name(unit.kind)
                                          << " is not an adversary search");
  }
  return {};
}

}  // namespace ftr
