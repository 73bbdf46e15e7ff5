#include "analysis/fault_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <istream>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"

namespace ftr {

// --- sources -----------------------------------------------------------------

bool ExplicitListSource::next(std::vector<Node>& out) {
  if (pos_ == sets_->size()) return false;
  out = (*sets_)[pos_++];
  return true;
}

bool SampledStreamSource::next(std::vector<Node>& out) {
  if (pos_ == count_) return false;
  Rng rng = Rng::stream(seed_, pos_++);
  const auto sample = rng.sample(n_, f_);
  out.assign(sample.begin(), sample.end());
  return true;
}

ExhaustiveGraySource::ExhaustiveGraySource(std::size_t n, std::size_t f)
    : enum_(n, f) {}

bool ExhaustiveGraySource::next(std::vector<Node>& out) {
  if (!enum_.valid()) return false;
  if (!first_ && !enum_.advance()) return false;
  first_ = false;
  const auto& cur = enum_.current();
  out.assign(cur.begin(), cur.end());
  return true;
}

bool IstreamFaultSetSource::next(std::vector<Node>& out) {
  while (next_data_line(*in_, line_, line_no_)) {
    out.clear();
    std::size_t pos = 0;
    for (auto token = next_token(line_, pos); !token.empty();
         token = next_token(line_, pos)) {
      // parse_u64 is the strict parse: it rejects signs ("-1" never wraps),
      // non-digit trailers ("12frog"), and uint64 overflow, so this one check
      // covers every bad-token shape with a line-numbered message.
      const auto id = parse_u64(token);
      FTR_EXPECTS_MSG(id.has_value() && *id < n_,
                      "fault-set line " << line_no_ << ": node id '" << token
                                        << "' non-numeric or out of range (n = "
                                        << n_ << ")");
      out.push_back(static_cast<Node>(*id));
    }
    if (out.empty()) continue;  // blank or comment-only line
    return true;
  }
  return false;
}

// --- summaries ---------------------------------------------------------------

FaultSweepSummary summarize_sweep_partial(const SweepPartial& partial) {
  FaultSweepSummary summary;
  summary.total_sets = partial.sets;
  summary.diameter_histogram = partial.diameter_histogram;
  summary.disconnected = partial.disconnected;
  summary.worst_diameter = partial.worst_diameter;
  summary.worst_index = static_cast<std::size_t>(partial.worst_index);
  summary.worst_faults = partial.worst_faults;
  summary.pairs_sampled = partial.pairs_sampled;
  summary.delivered = partial.delivered;
  if (partial.delivered > 0) {
    summary.avg_route_hops = static_cast<double>(partial.route_hops_total) /
                             static_cast<double>(partial.delivered);
  }
  summary.max_route_hops = partial.max_route_hops;
  summary.max_edge_hops = partial.max_edge_hops;
  return summary;
}

UnitSpec sweep_unit(UnitKind kind, std::size_t f, std::uint64_t count,
                    const FaultSweepOptions& options) {
  UnitSpec u;
  u.kind = kind;
  u.f = static_cast<std::uint32_t>(f);
  u.end = count;
  u.seed = options.seed;
  u.delivery_pairs = options.delivery_pairs;
  u.exec = options.exec;
  return u;
}

// --- the unit executor -------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

// Folds one set at global index `index`. Called in ascending index order
// within a chunk, so "strictly greater replaces" keeps the first index
// attaining the maximum. `faults` may be null when the caller unranks the
// worst set from worst_index afterwards.
void absorb_set(SweepPartial& partial, std::uint64_t index,
                std::uint32_t diameter, const DeliveryStats& delivery,
                const std::vector<Node>* faults) {
  ++partial.sets;
  if (diameter == kUnreachable) {
    ++partial.disconnected;
  } else {
    if (diameter >= partial.diameter_histogram.size()) {
      partial.diameter_histogram.resize(diameter + 1, 0);
    }
    ++partial.diameter_histogram[diameter];
  }
  if (!partial.have_worst || diameter > partial.worst_diameter) {
    partial.worst_diameter = diameter;
    partial.worst_index = index;
    partial.worst_faults.clear();
    if (faults != nullptr) partial.worst_faults = *faults;
    partial.have_worst = true;
  }
  partial.pairs_sampled += delivery.pairs_sampled;
  partial.delivered += delivery.delivered;
  partial.route_hops_total += delivery.route_hops_total;
  partial.max_route_hops =
      std::max(partial.max_route_hops, delivery.max_route_hops);
  partial.max_edge_hops =
      std::max(partial.max_edge_hops, delivery.max_edge_hops);
}

// One chunk of a unit: sets [lo, hi) of the global index space, made from
// their indices and evaluated on `scratch`, which no other chunk uses
// meanwhile, one block of up to lane_width() sets at a time.
SweepPartial sweep_chunk(SrgScratch& scratch, const UnitSpec& unit,
                         std::uint64_t lo, std::uint64_t hi) {
  SweepPartial part;
  const std::size_t n = scratch.num_nodes();
  const bool gray = unit.kind == UnitKind::kSweepGray;
  const bool deliver = unit.delivery_pairs > 0;
  std::optional<GraySubsetEnumerator> e;
  if (gray) e.emplace(n, unit.f, lo);
  const std::size_t lanes = scratch.lane_width();
  SrgScratch::Result res[kMaxLaneWidth];
  std::vector<std::vector<Node>> made;
  for (std::uint64_t r = lo; r < hi;) {
    const auto cnt =
        static_cast<std::size_t>(std::min<std::uint64_t>(lanes, hi - r));
    // The block's sets. A Gray block without delivery never needs them:
    // its worst set is unranked from worst_index afterwards.
    std::span<const std::vector<Node>> sets;
    if (unit.kind == UnitKind::kSweepExplicit) {
      sets = std::span<const std::vector<Node>>(unit.sets)
                 .subspan(static_cast<std::size_t>(r - unit.begin), cnt);
    } else if (!gray || deliver) {
      made.resize(cnt);
      std::optional<GraySubsetEnumerator> walk = e;
      for (std::size_t i = 0; i < cnt; ++i) {
        if (gray) {
          if (i > 0) walk->advance();
          made[i].assign(walk->current().begin(), walk->current().end());
        } else {
          Rng rng = Rng::stream(unit.seed, r + i);
          const auto sample = rng.sample(n, unit.f);
          made[i].assign(sample.begin(), sample.end());
        }
      }
      sets = made;
    }
    if (gray) {
      scratch.evaluate_gray_block(*e, cnt, res);
    } else {
      scratch.evaluate_sets(sets, res);
    }
    for (std::size_t i = 0; i < cnt; ++i) {
      const std::vector<Node>* faults = sets.empty() ? nullptr : &sets[i];
      DeliveryStats delivery;
      if (deliver) {
        // Delivery walks the routes against the set's fault stamps alone,
        // so no set needs a strike.
        scratch.set_faults(*faults);
        Rng rng = Rng::stream(unit.seed, r + i);
        delivery = measure_delivery(
            scratch, static_cast<std::size_t>(unit.delivery_pairs), rng);
      }
      absorb_set(part, r + i, res[i].diameter, delivery, faults);
    }
    r += cnt;
    if (gray && r < hi) e->advance();
  }
  return part;
}

// Emits progress whenever the merged count crosses a multiple of `every`.
// The caller serializes the calls (the merge lock, or one thread).
class ProgressEmitter {
 public:
  ProgressEmitter(std::uint64_t every, const SweepProgressFn& fn)
      : every_(every), fn_(fn), t0_(Clock::now()), next_at_(every) {}

  void maybe_emit(const SweepPartial& partial) {
    if (every_ == 0 || !fn_ || partial.sets < next_at_) return;
    FaultSweepProgress p;
    p.sets_done = partial.sets;
    p.worst_diameter = partial.worst_diameter;
    p.disconnected = partial.disconnected;
    p.seconds = std::chrono::duration<double>(Clock::now() - t0_).count();
    fn_(p);
    while (next_at_ <= partial.sets) next_at_ += every_;
  }

 private:
  std::uint64_t every_;
  const SweepProgressFn& fn_;
  Clock::time_point t0_;
  std::uint64_t next_at_;
};

// Fills the telemetry fields on top of summarize_sweep_partial.
FaultSweepSummary finish_summary(const SweepPartial& partial, unsigned workers,
                                 const ExecutorStats& executor,
                                 Clock::time_point t0) {
  FaultSweepSummary summary = summarize_sweep_partial(partial);
  summary.threads_used = workers;
  summary.executor = executor;
  summary.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (summary.seconds > 0.0 && summary.total_sets > 0) {
    summary.fault_sets_per_sec =
        static_cast<double>(summary.total_sets) / summary.seconds;
  }
  return summary;
}

// Sets per chunk: the resolved batch, whole packed blocks on Gray units (a
// chunk ending in a partial Gray block pays for a full one; other units run
// a short tail set by set).
std::uint64_t unit_grain(const UnitSpec& unit) {
  const std::uint64_t batch = unit.exec.resolved_batch();
  return unit.kind == UnitKind::kSweepGray ? lane_aligned(batch) : batch;
}

}  // namespace

void check_unit(const UnitSpec& unit, std::size_t n) {
  const char* kind = unit_kind_name(unit.kind);
  FTR_EXPECTS_MSG(unit.begin <= unit.end,
                  kind << " unit: inverted window [" << unit.begin << ", "
                       << unit.end << ")");
  if (unit.kind == UnitKind::kSweepExplicit) {
    FTR_EXPECTS_MSG(unit.sets.size() == unit.end - unit.begin,
                    kind << " unit [" << unit.begin << ", " << unit.end
                         << ") carries " << unit.sets.size() << " sets");
    return;
  }
  FTR_EXPECTS_MSG(unit.f <= n, kind << " unit: " << unit.f
                                    << " faults exceed the " << n
                                    << " nodes");
  if (unit.kind == UnitKind::kSweepGray) {
    FTR_EXPECTS_MSG(unit.end <= checked_binomial(n, unit.f),
                    kind << " unit: window end " << unit.end
                         << " exceeds C(" << n << ", " << unit.f << ")");
  }
}

SweepPartial execute_unit(const SrgIndex& index, const UnitSpec& unit,
                          const SweepProgressFn& on_progress,
                          ExecutorStats* executor_out) {
  const std::size_t n = index.num_nodes();
  check_unit(unit, n);
  const unsigned workers = unit.exec.resolved_threads();
  std::mutex merge_mutex;  // guards partial and progress
  SweepPartial partial;
  ProgressEmitter progress(unit.exec.progress_every, on_progress);
  // One scratch per executor worker, built on first use: a worker runs its
  // chunks one at a time on its own thread, so its scratch stays there.
  std::vector<std::optional<SrgScratch>> scratch(workers);
  ExecutorStats executor;
  parallel_for_chunks(
      static_cast<std::size_t>(unit.end - unit.begin), workers,
      static_cast<std::size_t>(unit_grain(unit)),
      [&](std::size_t, std::size_t begin, std::size_t end, unsigned worker) {
        if (!scratch[worker]) scratch[worker].emplace(index);
        const SweepPartial chunk = sweep_chunk(
            *scratch[worker], unit, unit.begin + begin, unit.begin + end);
        // Progress fires under the lock too, so its calls never overlap
        // and the sets they report only grow.
        const std::lock_guard<std::mutex> lock(merge_mutex);
        merge_sweep_partials(partial, chunk);
        progress.maybe_emit(partial);
      },
      &executor);

  if (unit.kind == UnitKind::kSweepGray && partial.have_worst) {
    // Gray chunks without delivery never hold their sets; unrank the winner
    // from its rank.
    const auto worst = gray_subset_at_rank(n, unit.f, partial.worst_index);
    partial.worst_faults.assign(worst.begin(), worst.end());
  }
  if (executor_out != nullptr) executor_out->accumulate(executor);
  return partial;
}

FaultSweepSummary sweep_unit_summary(const SrgIndex& index,
                                     const UnitSpec& unit,
                                     const SweepProgressFn& on_progress) {
  const auto t0 = Clock::now();
  ExecutorStats executor;
  const SweepPartial partial =
      execute_unit(index, unit, on_progress, &executor);
  return finish_summary(partial, unit.exec.resolved_threads(), executor, t0);
}

// --- wrappers ----------------------------------------------------------------

SweepPartial sweep_exhaustive_gray_range(const RoutingTable& table,
                                         const SrgIndex& index, std::size_t f,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const FaultSweepOptions& options,
                                         ExecutorStats* executor) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  UnitSpec unit = sweep_unit(UnitKind::kSweepGray, f, end_rank, options);
  unit.begin = begin_rank;
  return execute_unit(index, unit, options.on_progress, executor);
}

FaultSweepSummary sweep_fault_source(const RoutingTable& table,
                                     const SrgIndex& index,
                                     FaultSetSource& source,
                                     const FaultSweepOptions& options) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  const auto t0 = Clock::now();
  const UnitSpec base = sweep_unit(UnitKind::kSweepExplicit, 0, 0, options);
  const std::uint64_t batch = unit_grain(base);
  unsigned workers = options.exec.resolved_threads();
  if (const auto size = source.size()) {
    workers = static_cast<unsigned>(std::clamp<std::uint64_t>(
        num_chunks(static_cast<std::size_t>(*size),
                   static_cast<std::size_t>(batch)),
        1, workers));
  }

  // The read lock guards the source and the stream state below it.
  std::mutex read_mutex;
  std::uint64_t read_pos = 0;  // sets taken so far: the next chunk's begin
  bool done = false;           // exhausted, or something failed
  std::uint64_t failed_at = std::numeric_limits<std::uint64_t>::max();
  std::exception_ptr failure;
  // Caller holds the read lock. The failure at the lowest read position
  // wins; every set below it was read before it, so it is deterministic.
  const auto fail = [&](std::uint64_t at) {
    done = true;
    if (at < failed_at) {
      failed_at = at;
      failure = std::current_exception();
    }
  };
  std::mutex merge_mutex;  // guards partial, chunks and progress
  SweepPartial partial;
  std::uint64_t chunks = 0;
  ProgressEmitter progress(options.exec.progress_every, options.on_progress);
  // Per worker, for the whole stream: an explicit-set unit whose sets are
  // the worker's chunk buffer (reused, so a set's storage is too), and the
  // scratch it evaluates on.
  std::vector<UnitSpec> buffers(workers, base);
  std::vector<std::optional<SrgScratch>> scratch(workers);

  const auto pull = [&](std::size_t, std::size_t, std::size_t,
                        unsigned worker) {
    UnitSpec& buf = buffers[worker];
    for (;;) {
      std::size_t got = 0;
      {
        const std::lock_guard<std::mutex> lock(read_mutex);
        if (done) return;
        try {
          for (; got < batch; ++got) {
            if (got == buf.sets.size()) buf.sets.emplace_back();
            if (!source.next(buf.sets[got])) {
              done = true;
              break;
            }
          }
        } catch (...) {
          fail(read_pos + got);
          return;
        }
        buf.begin = read_pos;
        read_pos += got;
      }
      if (got == 0) return;
      try {
        if (!scratch[worker]) scratch[worker].emplace(index);
        const SweepPartial chunk =
            sweep_chunk(*scratch[worker], buf, buf.begin, buf.begin + got);
        const std::lock_guard<std::mutex> lock(merge_mutex);
        merge_sweep_partials(partial, chunk);
        ++chunks;
        progress.maybe_emit(partial);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(read_mutex);
        fail(buf.begin);
        return;
      }
    }
  };
  // One executor chunk per worker, each a pull loop until the stream ends.
  ExecutorStats executor;
  parallel_for_chunks(workers, workers, 1, pull, &executor);
  if (failure) std::rethrow_exception(failure);
  executor.chunks_local = chunks;
  return finish_summary(partial, options.exec.resolved_threads(), executor, t0);
}

FaultSweepSummary sweep_exhaustive_gray(const RoutingTable& table,
                                        const SrgIndex& index, std::size_t f,
                                        const FaultSweepOptions& options) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  FTR_EXPECTS(f <= index.num_nodes());
  return sweep_unit_summary(
      index,
      sweep_unit(UnitKind::kSweepGray, f,
                 checked_binomial(index.num_nodes(), f), options),
      options.on_progress);
}

FaultSweepSummary sweep_fault_sets(
    const RoutingTable& table, const SrgIndex& index,
    const std::vector<std::vector<Node>>& fault_sets,
    const FaultSweepOptions& options) {
  ExplicitListSource source(fault_sets);
  return sweep_fault_source(table, index, source, options);
}

FaultSweepSummary sweep_fault_sets(
    const RoutingTable& table, const std::vector<std::vector<Node>>& fault_sets,
    const FaultSweepOptions& options) {
  const SrgIndex index(table);
  return sweep_fault_sets(table, index, fault_sets, options);
}

}  // namespace ftr
