#include "fault/adversary.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"

namespace ftr {

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

// Climbs restarts [begin, end) of one chunk in lockstep and folds them into
// `p` in restart order with the serial stop rule; returns whether a restart
// stopped the search. Polls `aborted` once per round and returns false
// with `p` untouched when it fires.
template <typename Aborted>
bool climb_chunk(std::size_t n, std::size_t f, const FaultEvaluator& eval,
                 std::uint64_t seed, std::uint64_t begin, std::uint64_t end,
                 std::size_t max_steps,
                 const std::vector<std::vector<Node>>& seeds,
                 const Aborted& aborted, SweepPartial& p) {
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
    if (aborted()) return false;
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
      eval(std::span<const std::vector<Node>>(sets.data(), used), d.data());
    }
    for (Climb& c : climbs) {
      if (c.live) resolve_step(c, max_steps, sets, d.data());
    }
    drop_after_first_unreachable(climbs);
  }
  for (std::size_t k = 0; k < restarts; ++k) {
    const Climb& c = climbs[k];
    p.sets += c.evaluations;
    if (!p.have_worst || c.best > p.worst_diameter) {
      p.have_worst = true;
      p.worst_diameter = c.best;
      p.worst_index = begin + k;
      p.worst_faults = c.current;
    }
    if (c.best == kUnreachable) return true;
  }
  return false;
}

}  // namespace

SweepPartial hillclimb_worst_faults(std::size_t n, std::size_t f,
                                    const FaultEvaluatorFactory& make_eval,
                                    std::uint64_t seed, std::uint64_t restarts,
                                    std::size_t max_steps,
                                    const std::vector<std::vector<Node>>& seeds,
                                    const ExecPolicy& exec) {
  FTR_EXPECTS(f <= n);
  // An even share of the restarts per worker: a chunk's climbs share each
  // round's evaluator call, so the more of them, the fuller its blocks.
  const unsigned threads = exec.resolved_threads();
  const auto count = static_cast<std::size_t>(restarts);
  const std::size_t grain =
      std::max<std::size_t>(1, (count + threads - 1) / threads);
  const std::size_t chunks = num_chunks(count, grain);
  std::vector<SweepPartial> partials(chunks);
  // The lowest chunk that stopped. The search ends there, so skipping the
  // chunks past it — or abandoning one mid-climb once a lower chunk stops —
  // is a pure optimization. Chunks are claimed in ascending order, so the
  // chunks past a stop are already running when it lands; the per-round
  // poll is what lets them quit early.
  std::atomic<std::size_t> first_stop{chunks};
  parallel_for_chunks(
      count, threads, grain,
      [&](std::size_t chunk, std::size_t c_begin, std::size_t c_end,
          unsigned) {
        const auto aborted = [&] {
          return chunk > first_stop.load(std::memory_order_relaxed);
        };
        if (aborted()) return;
        if (!climb_chunk(n, f, make_eval(), seed, c_begin, c_end, max_steps,
                         seeds, aborted, partials[chunk])) {
          return;
        }
        std::size_t cur = first_stop.load(std::memory_order_relaxed);
        while (chunk < cur && !first_stop.compare_exchange_weak(
                                  cur, chunk, std::memory_order_relaxed)) {
        }
      });

  // In restart order, through the stopping chunk.
  SweepPartial acc;
  const std::size_t folded = std::min(first_stop.load() + 1, chunks);
  for (std::size_t c = 0; c < folded; ++c) {
    merge_sweep_partials(acc, partials[c]);
  }
  return acc;
}

}  // namespace ftr
