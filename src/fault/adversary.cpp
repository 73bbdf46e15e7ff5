#include "fault/adversary.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

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
  struct State {
    explicit State(const SrgIndex& ix) : scratch(ix) {}
    SrgScratch scratch;
    std::vector<SrgScratch::Result> res;
  };
  return [&index]() -> FaultEvaluator {
    auto state = std::make_shared<State>(index);
    return [state](std::span<const std::vector<Node>> sets, std::uint32_t* d) {
      state->res.resize(sets.size());
      state->scratch.evaluate_sets(sets, state->res.data());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        d[i] = state->res[i].diameter;
      }
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
  // One chunk per worker, in whole lane blocks: samples cost alike, and a
  // one-thread window (every serve request) fills its blocks with all of
  // its samples.
  const std::uint64_t threads = exec.resolved_threads();
  const auto grain = static_cast<std::size_t>(
      lane_aligned((end_index - begin_index + threads - 1) / threads));
  return chunked_rank_scan(
      begin_index, end_index, exec, grain, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        (void)aborted;  // sampling never early-stops
        const FaultEvaluator eval = make_eval();
        std::vector<std::vector<Node>> sets;
        std::uint32_t d[kMaxLaneWidth];
        for (std::uint64_t at = begin; at < end; at += kMaxLaneWidth) {
          const auto cnt = static_cast<std::size_t>(
              std::min<std::uint64_t>(kMaxLaneWidth, end - at));
          sets.resize(cnt);
          for (std::size_t i = 0; i < cnt; ++i) {
            // Sample i is a pure function of (seed, i): thread-count-proof
            // AND partition-proof.
            Rng rng = Rng::stream(seed, at + i);
            const auto sample = rng.sample(n, f);
            sets[i].assign(sample.begin(), sample.end());
          }
          eval(sets, d);
          for (std::size_t i = 0; i < cnt; ++i) {
            ++p.evaluations;
            if (!p.any || d[i] > p.d) {
              p.any = true;
              p.d = d[i];
              p.faults = sets[i];
            }
          }
        }
      });
}

namespace {

// One restart's first-improvement climb, advanced one step per lockstep
// round: the state the serial climb carries between steps, plus the plan
// of the step in flight.
struct Climb {
  std::vector<Node> current;
  std::uint32_t best = 0;
  Rng rng;
  std::uint64_t evaluations = 0;
  std::size_t steps = 0;
  bool live = true;
  // The planned step: its candidates are the round's sets [first, first +
  // count); slot k's run ends at slot_end[k], and slot_rng[k] is the Rng
  // right after slot k's candidate order was drawn.
  std::size_t first = 0;
  std::size_t count = 0;
  std::vector<std::size_t> slot_end;
  std::vector<Rng> slot_rng;
};

// Plans c's next step as the serial scan would run it if no swap improved:
// the slots in a fresh random order, each slot's non-members in a fresh
// random order, a slot cut short when the evaluation counter hits a
// multiple of 64 past candidate n / 2. Appends the candidate sets to
// sets[used...].
void plan_step(std::size_t n, Climb& c, std::vector<std::vector<Node>>& sets,
               std::size_t& used) {
  c.first = used;
  c.count = 0;
  c.slot_end.clear();
  c.slot_rng.clear();
  Rng rng = c.rng;
  const auto slot_order = rng.permutation(c.current.size());
  for (std::size_t si : slot_order) {
    const auto cand_order = rng.permutation(n);
    for (std::size_t cand : cand_order) {
      const Node nv = static_cast<Node>(cand);
      if (std::find(c.current.begin(), c.current.end(), nv) !=
          c.current.end()) {
        continue;
      }
      ++c.count;
      if (used == sets.size()) sets.emplace_back();
      sets[used] = c.current;
      sets[used][si] = nv;
      ++used;
      // Cap the inner scan: full n per slot is wasteful on big graphs.
      if ((c.evaluations + c.count) % 64 == 0 && cand > n / 2) break;
    }
    c.slot_end.push_back(c.count);
    c.slot_rng.push_back(rng);
  }
}

// Applies the evaluated plan: the first improving candidate becomes the
// climb's state, as if the serial scan had stopped there.
void resolve_step(Climb& c, std::size_t max_steps,
                  const std::vector<std::vector<Node>>& sets,
                  const std::uint32_t* d) {
  for (std::size_t i = 0; i < c.count; ++i) {
    if (d[c.first + i] <= c.best) continue;
    std::size_t slot = 0;
    while (c.slot_end[slot] <= i) ++slot;
    c.current = sets[c.first + i];
    c.best = d[c.first + i];
    c.evaluations += i + 1;
    c.rng = c.slot_rng[slot];
    ++c.steps;
    // Cannot get worse than disconnected.
    c.live = c.steps < max_steps && c.best != kUnreachable;
    return;
  }
  c.evaluations += c.count;
  c.live = false;
}

// The first restart at kUnreachable stops the search, so the restarts after
// it are never counted: stop climbing them.
void drop_after_first_unreachable(std::vector<Climb>& climbs) {
  bool dropping = false;
  for (Climb& c : climbs) {
    if (dropping) c.live = false;
    dropping = dropping || c.best == kUnreachable;
  }
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
  // An even share of the restarts per worker: a chunk's climbs share each
  // round's evaluator call, so the more of them, the fuller its blocks.
  const std::uint64_t threads = exec.resolved_threads();
  const auto grain = static_cast<std::size_t>(std::max<std::uint64_t>(
      1, (end_restart - begin_restart + threads - 1) / threads));
  return chunked_rank_scan(
      begin_restart, end_restart, exec, grain, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        const FaultEvaluator eval = make_eval();
        const auto restarts = static_cast<std::size_t>(end - begin);
        std::vector<Climb> climbs(restarts);
        std::vector<std::vector<Node>> sets(restarts);
        std::vector<std::uint32_t> d(restarts);
        // Round 0 evaluates every restart's start.
        for (std::size_t k = 0; k < restarts; ++k) {
          const std::uint64_t restart = begin + k;
          Climb& c = climbs[k];
          c.rng = Rng::stream(seed, restart);
          if (restart < seeds.size()) {
            c.current = seeds[static_cast<std::size_t>(restart)];
          } else {
            const auto sample = c.rng.sample(n, f);
            c.current.assign(sample.begin(), sample.end());
          }
          FTR_EXPECTS(c.current.size() == f);
          sets[k] = c.current;
        }
        eval(sets, d.data());
        for (std::size_t k = 0; k < restarts; ++k) {
          climbs[k].best = d[k];
          climbs[k].evaluations = 1;
          climbs[k].live = max_steps > 0;
        }
        drop_after_first_unreachable(climbs);
        // One step of every live climb per round, all through one call.
        for (;;) {
          if (aborted()) return;
          std::size_t used = 0;
          bool any_live = false;
          for (Climb& c : climbs) {
            if (!c.live) continue;
            any_live = true;
            plan_step(n, c, sets, used);
          }
          if (!any_live) break;
          if (used > 0) {
            d.resize(used);
            eval(std::span<const std::vector<Node>>(sets.data(), used),
                 d.data());
          }
          for (Climb& c : climbs) {
            if (c.live) resolve_step(c, max_steps, sets, d.data());
          }
          drop_after_first_unreachable(climbs);
        }
        // Fold in restart order with the serial stop rule.
        for (const Climb& c : climbs) {
          p.evaluations += c.evaluations;
          if (!p.any || c.best > p.d) {
            p.any = true;
            p.d = c.best;
            p.faults = c.current;
          }
          if (c.best == kUnreachable) {
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
