#include "analysis/fault_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <sstream>
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
  if (pos_ == end_) return false;
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
    std::istringstream fields(line_);
    std::string token;
    while (fields >> token) {
      // parse_u64 is the strict parse (istream extraction into an unsigned
      // would silently wrap "-1" to 2^64-1 and half-consume "12frog"): it
      // rejects signs, non-digit trailers, and uint64 overflow, so this one
      // check covers every bad-token shape with a line-numbered message.
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

// --- merge authority ---------------------------------------------------------

void absorb_sweep_record(SweepPartial& partial, std::uint64_t index,
                         const FaultSweepRecord& rec,
                         const std::vector<Node>* faults) {
  ++partial.sets;
  if (rec.diameter == kUnreachable) {
    ++partial.disconnected;
  } else {
    if (rec.diameter >= partial.diameter_histogram.size()) {
      partial.diameter_histogram.resize(rec.diameter + 1, 0);
    }
    ++partial.diameter_histogram[rec.diameter];
  }
  // First index attaining the max wins: strictly-greater replaces, equal
  // keeps the incumbent (which has the smaller index under in-order folds).
  // kUnreachable compares greater than every finite diameter, so
  // disconnection needs no special casing.
  if (!partial.have_worst || rec.diameter > partial.worst_diameter) {
    partial.worst_diameter = rec.diameter;
    partial.worst_index = index;
    partial.worst_faults.clear();
    if (faults != nullptr) partial.worst_faults = *faults;
    partial.have_worst = true;
  }
  partial.pairs_sampled += rec.delivery.pairs_sampled;
  partial.delivered += rec.delivery.delivered;
  partial.route_hops_total += rec.delivery.route_hops_total;
  partial.max_route_hops =
      std::max(partial.max_route_hops, rec.delivery.max_route_hops);
  partial.max_edge_hops =
      std::max(partial.max_edge_hops, rec.delivery.max_edge_hops);
}

void merge_sweep_partials(SweepPartial& into, const SweepPartial& next) {
  into.sets += next.sets;
  if (next.diameter_histogram.size() > into.diameter_histogram.size()) {
    into.diameter_histogram.resize(next.diameter_histogram.size(), 0);
  }
  for (std::size_t d = 0; d < next.diameter_histogram.size(); ++d) {
    into.diameter_histogram[d] += next.diameter_histogram[d];
  }
  into.disconnected += next.disconnected;
  // `next` covers later indices, so on equal diameters the incumbent (the
  // earlier index) must survive — same strictly-greater rule as the
  // per-record fold.
  if (next.have_worst &&
      (!into.have_worst || next.worst_diameter > into.worst_diameter)) {
    into.worst_diameter = next.worst_diameter;
    into.worst_index = next.worst_index;
    into.worst_faults = next.worst_faults;
    into.have_worst = true;
  }
  into.pairs_sampled += next.pairs_sampled;
  into.delivered += next.delivered;
  into.route_hops_total += next.route_hops_total;
  into.max_route_hops = std::max(into.max_route_hops, next.max_route_hops);
  into.max_edge_hops = std::max(into.max_edge_hops, next.max_edge_hops);
}

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

// --- streaming engine --------------------------------------------------------

namespace {

// One fault set through one worker scratch. The delivery stream is keyed by
// the set's global index, so the record is a pure function of (table, set,
// delivery_pairs, seed, index) — scheduling-proof AND partition-proof: a
// remote worker handed index i reproduces the exact record the local sweep
// would have produced at i.
FaultSweepRecord evaluate_one(const RoutingTable& table, SrgScratch& scratch,
                              const std::vector<Node>& faults,
                              const FaultSweepOptions& options,
                              std::uint64_t set_index) {
  FaultSweepRecord rec;
  const auto res = scratch.evaluate(faults);
  rec.diameter = res.diameter;
  rec.survivors = res.survivors;
  rec.arcs = res.arcs;
  if (options.delivery_pairs > 0) {
    // The scratch is still struck from evaluate() above; delivery walks
    // that set's bitset rows without a second strike.
    Rng rng = Rng::stream(options.seed, set_index);
    rec.delivery =
        measure_delivery(table, scratch, options.delivery_pairs, rng);
  }
  return rec;
}

// Emits progress between batches (on the calling thread) whenever the
// processed count crosses a multiple of progress_every.
struct ProgressEmitter {
  const FaultSweepOptions& options;
  std::chrono::steady_clock::time_point t0;
  std::uint64_t next_at;

  explicit ProgressEmitter(const FaultSweepOptions& opts,
                           std::chrono::steady_clock::time_point start)
      : options(opts), t0(start), next_at(opts.exec.progress_every) {}

  void maybe_emit(const SweepPartial& partial, const ExecutorStats& executor) {
    if (options.exec.progress_every == 0 || !options.on_progress) return;
    if (partial.sets < next_at) return;
    FaultSweepProgress p;
    p.sets_done = partial.sets;
    p.worst_diameter = partial.worst_diameter;
    p.disconnected = partial.disconnected;
    p.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
    p.executor = executor;
    options.on_progress(p);
    while (next_at <= partial.sets) next_at += options.exec.progress_every;
  }
};

// The batched streaming core. Reads batch_size * workers sets, fans the
// batch across the workers (one chunk per worker, each owning an
// SrgScratch), reduces the batch in input order, and reuses the buffers for
// the next batch — memory is bounded by one batch regardless of stream
// length. Per-record values are pure per-set functions and the reduce order
// is the global input order, so the partial depends on neither the thread
// count nor the batch size.
SweepPartial stream_partial_impl(const RoutingTable& table,
                                 const SrgIndex& index, FaultSetSource& source,
                                 std::uint64_t base_index,
                                 const FaultSweepOptions& options,
                                 std::vector<FaultSweepRecord>* per_set_out,
                                 ExecutorStats* executor_out) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  SweepPartial partial;
  ExecutorStats executor;
  const unsigned workers = options.exec.resolved_threads();
  const std::size_t batch_size =
      std::max<std::size_t>(1, options.exec.batch_size);
  const std::size_t batch_items = batch_size * workers;

  std::vector<std::vector<Node>> batch(batch_items);
  std::vector<FaultSweepRecord> records(batch_items);

  const auto t0 = std::chrono::steady_clock::now();
  ProgressEmitter progress(options, t0);
  for (;;) {
    std::size_t filled = 0;
    while (filled < batch_items && source.next(batch[filled])) ++filled;
    if (filled == 0) break;
    const std::uint64_t base = base_index + partial.sets;
    ExecutorStats batch_stats;
    parallel_for_chunks(
        filled, workers, batch_size,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          (void)chunk;
          SrgScratch scratch(index);
          for (std::size_t i = begin; i < end; ++i) {
            records[i] =
                evaluate_one(table, scratch, batch[i], options, base + i);
          }
        },
        &batch_stats);
    executor.accumulate(batch_stats);
    for (std::size_t i = 0; i < filled; ++i) {
      absorb_sweep_record(partial, base + i, records[i], &batch[i]);
      if (per_set_out != nullptr) per_set_out->push_back(records[i]);
    }
    progress.maybe_emit(partial, executor);
    if (filled < batch_items) break;  // the stream ended mid-batch
  }
  if (executor_out != nullptr) executor_out->accumulate(executor);
  return partial;
}

// Fills the telemetry fields wrappers own on top of summarize_sweep_partial.
FaultSweepSummary finish_summary(const SweepPartial& partial, unsigned workers,
                                 const ExecutorStats& executor,
                                 double seconds) {
  FaultSweepSummary summary = summarize_sweep_partial(partial);
  summary.threads_used = workers;
  summary.executor = executor;
  summary.seconds = seconds;
  if (seconds > 0.0 && summary.total_sets > 0) {
    summary.fault_sets_per_sec =
        static_cast<double>(summary.total_sets) / seconds;
  }
  return summary;
}

}  // namespace

SweepPartial sweep_fault_source_partial(const RoutingTable& table,
                                        const SrgIndex& index,
                                        FaultSetSource& source,
                                        std::uint64_t base_index,
                                        const FaultSweepOptions& options,
                                        ExecutorStats* executor) {
  return stream_partial_impl(table, index, source, base_index, options,
                             nullptr, executor);
}

SweepPartial sweep_exhaustive_gray_range(const RoutingTable& table,
                                         const SrgIndex& index, std::size_t f,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const FaultSweepOptions& options,
                                         ExecutorStats* executor_out) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_binomial(n, f);
  FTR_EXPECTS(begin_rank <= end_rank && end_rank <= total);

  SweepPartial partial;
  ExecutorStats executor;
  const unsigned workers = options.exec.resolved_threads();
  // Packed evaluates up to lane_width() Gray-adjacent sets per bit-parallel
  // pass, but cannot materialize per-set surviving graphs, so delivery
  // sampling evaluates each set on its own (bitset). Packed chunks are
  // whole blocks: the batch rounds up to a multiple of the widest lane width.
  const bool packed = options.delivery_pairs == 0;
  const std::size_t batch =
      std::max<std::size_t>(1, options.exec.batch_size);
  const std::size_t batch_size =
      packed ? static_cast<std::size_t>(lane_aligned(batch)) : batch;
  const std::uint64_t range = end_rank - begin_rank;
  const std::uint64_t batch_items =
      static_cast<std::uint64_t>(batch_size) * workers;

  std::vector<FaultSweepRecord> records(
      static_cast<std::size_t>(std::min<std::uint64_t>(batch_items, range)));

  const auto t0 = std::chrono::steady_clock::now();
  ProgressEmitter progress(options, t0);
  while (partial.sets < range) {
    const std::uint64_t base = begin_rank + partial.sets;
    const auto filled = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_items, end_rank - base));
    ExecutorStats batch_stats;
    parallel_for_chunks(
        filled, workers, batch_size,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          (void)chunk;
          SrgScratch scratch(index);
          GraySubsetEnumerator e(n, f, base + begin);
          if (packed) {
            const std::size_t lanes = scratch.lane_width();
            SrgScratch::Result res[kMaxLaneWidth];
            std::size_t r = begin;
            while (r < end) {
              const std::size_t cnt = std::min<std::size_t>(lanes, end - r);
              scratch.evaluate_gray_block(e, cnt, res);
              for (std::size_t i = 0; i < cnt; ++i) {
                records[r + i] = {res[i].diameter, res[i].survivors,
                                  res[i].arcs, {}};
              }
              r += cnt;
              if (r < end) e.advance();
            }
            return;
          }
          std::vector<Node> faults;
          for (std::size_t r = begin; r < end; ++r) {
            faults.assign(e.current().begin(), e.current().end());
            records[r] = evaluate_one(table, scratch, faults, options, base + r);
            if (r + 1 < end) e.advance();
          }
        },
        &batch_stats);
    executor.accumulate(batch_stats);
    for (std::size_t i = 0; i < filled; ++i) {
      absorb_sweep_record(partial, base + i, records[i], nullptr);
    }
    progress.maybe_emit(partial, executor);
  }

  if (range > 0) {
    // The worst set was never stored (constant memory); unrank it from the
    // winning gray rank instead.
    const auto worst = gray_subset_at_rank(n, f, partial.worst_index);
    partial.worst_faults.assign(worst.begin(), worst.end());
  }
  if (executor_out != nullptr) executor_out->accumulate(executor);
  return partial;
}

// --- summary wrappers --------------------------------------------------------

FaultSweepSummary sweep_fault_source(const RoutingTable& table,
                                     const SrgIndex& index,
                                     FaultSetSource& source,
                                     const FaultSweepOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  ExecutorStats executor;
  const SweepPartial partial =
      stream_partial_impl(table, index, source, 0, options, nullptr, &executor);
  const auto t1 = std::chrono::steady_clock::now();
  return finish_summary(partial, options.exec.resolved_threads(), executor,
                        std::chrono::duration<double>(t1 - t0).count());
}

FaultSweepSummary sweep_exhaustive_gray(const RoutingTable& table,
                                        const SrgIndex& index, std::size_t f,
                                        const FaultSweepOptions& options) {
  FTR_EXPECTS(index.num_nodes() == table.num_nodes());
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_binomial(n, f);
  const auto t0 = std::chrono::steady_clock::now();
  ExecutorStats executor;
  const SweepPartial partial = sweep_exhaustive_gray_range(
      table, index, f, 0, total, options, &executor);
  const auto t1 = std::chrono::steady_clock::now();
  return finish_summary(partial, options.exec.resolved_threads(), executor,
                        std::chrono::duration<double>(t1 - t0).count());
}

FaultSweepSummary sweep_fault_sets(
    const RoutingTable& table, const SrgIndex& index,
    const std::vector<std::vector<Node>>& fault_sets,
    const FaultSweepOptions& options) {
  ExplicitListSource source(fault_sets);
  std::vector<FaultSweepRecord> per_set;
  per_set.reserve(fault_sets.size());
  const auto t0 = std::chrono::steady_clock::now();
  ExecutorStats executor;
  const SweepPartial partial = stream_partial_impl(table, index, source, 0,
                                                   options, &per_set,
                                                   &executor);
  const auto t1 = std::chrono::steady_clock::now();
  FaultSweepSummary summary =
      finish_summary(partial, options.exec.resolved_threads(), executor,
                     std::chrono::duration<double>(t1 - t0).count());
  summary.per_set = std::move(per_set);
  return summary;
}

FaultSweepSummary sweep_fault_sets(
    const RoutingTable& table, const std::vector<std::vector<Node>>& fault_sets,
    const FaultSweepOptions& options) {
  const SrgIndex index(table);
  return sweep_fault_sets(table, index, fault_sets, options);
}

}  // namespace ftr
