// The fault-sweep pipeline: evaluate one routing table against many fault
// sets and aggregate what every experiment in this repo wants from such a
// sweep — the surviving-diameter distribution, the worst witness, and
// (optionally) delivery measurements from the paper's cost model. This is
// the library surface behind the CLI `sweep` verb, serve's sweep requests,
// the distributed workers, and the scenario benches.
//
// Every bounded sweep runs as work units (fault/work_unit.hpp) through ONE
// loop, execute_unit, which runs the tolerance check's sweep units too (its
// hill-climb runs in process, fault/adversary.hpp; streams, below, run the
// same chunks over sets they pull from a source). A sweep unit names a
// GLOBAL window [begin, end) of set indices and where its sets come from:
// Gray subset ranks, counter-seeded samples (set i is Rng::stream(seed,
// i)), or literal sets it carries. The executor runs the whole window as
// one parallel_for_chunks call with a grain of the policy's
// resolved_batch() (rounded up to whole packed lane blocks for Gray
// units). Each chunk evaluates on the SrgScratch of the executor worker
// that runs it (one per worker, built on first use), makes its own sets
// from their global indices, and folds them into a chunk SweepPartial,
// which it merges into the unit's result under one lock as soon as it
// finishes. merge_sweep_partials is order-free — the same merge the
// distributed coordinator uses — so a sweep's output is bit-identical for
// any thread count, batch size, unit split, or worker count. Delivery
// sampling for set i draws from Rng::stream(seed, i), never from a shared
// generator.
//
// A chunk evaluates its sets block by block, up to the lane width at a
// time, on the packed kernel: Gray units as blocks of Gray-adjacent sets
// (SrgScratch::evaluate_gray_block), explicit and sampled units as blocks
// of unrelated sets through SrgScratch::evaluate_sets, the block policy
// shared with the hill-climber: a block too small to profit (fewer
// than kMinAnySetBlock sets: a chunk's short tail, a serve request's
// 20-set sweep) is evaluated set by set with SrgScratch::evaluate (bitset
// rows, struck sparsely through the faults' routes). Delivery stamps each
// set's faults (set_faults) and walks its routes against them, so it
// never needs a strike of its own.
//
// A stream (FaultSetSource, e.g. the CLI's `sweep --stdin`) runs the same
// way in one parallel_for_chunks call whose workers pull their chunks from
// the source: under one read lock a worker takes the next resolved_batch()
// sets into its own buffer, whose global window is its read position, then
// evaluates and merges them like any chunk while the others read on. Chunk
// i is still the sets [i*batch, (i+1)*batch) in read order, parsing
// overlaps evaluation, and at most workers x batch sets are buffered, so
// memory stays constant in the stream length.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/exec_policy.hpp"
#include "common/parallel.hpp"
#include "fault/srg_engine.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"
#include "sim/network_sim.hpp"

namespace ftr {

/// A pull-based stream of fault sets. next() overwrites `out` with the next
/// set and returns true, or returns false when the stream is exhausted.
/// Sources are single-pass and not thread-safe: sweep_fault_source's
/// executor workers call next() under one read lock, in read order, never
/// concurrently (the --workers coordinator reads on its one thread).
class FaultSetSource {
 public:
  virtual ~FaultSetSource() = default;

  /// Number of sets the source will produce, when known up front
  /// (exhaustive, sampled, explicit lists); nullopt for unbounded feeds.
  virtual std::optional<std::uint64_t> size() const { return std::nullopt; }

  virtual bool next(std::vector<Node>& out) = 0;
};

/// Streams a materialized list (no copy; the list must outlive the source).
class ExplicitListSource final : public FaultSetSource {
 public:
  explicit ExplicitListSource(const std::vector<std::vector<Node>>& sets)
      : sets_(&sets) {}
  std::optional<std::uint64_t> size() const override { return sets_->size(); }
  bool next(std::vector<Node>& out) override;

 private:
  const std::vector<std::vector<Node>>* sets_;
  std::size_t pos_ = 0;
};

/// `count` uniform random f-subsets of {0..n-1}; set i is drawn from
/// Rng::stream(seed, i), so the stream is a pure function of (n, f, count,
/// seed) — independent of batching, threading, and of how many sets were
/// consumed before (unlike random_fault_sets, which advances one shared
/// generator). It yields exactly the sets of a kSweepSampled unit.
class SampledStreamSource final : public FaultSetSource {
 public:
  SampledStreamSource(std::size_t n, std::size_t f, std::uint64_t count,
                      std::uint64_t seed)
      : n_(n), f_(f), count_(count), seed_(seed) {}

  std::optional<std::uint64_t> size() const override { return count_; }
  bool next(std::vector<Node>& out) override;

 private:
  std::size_t n_;
  std::size_t f_;
  std::uint64_t count_;
  std::uint64_t seed_;
  std::uint64_t pos_ = 0;
};

/// Every f-subset of {0..n-1} in revolving-door (Gray) order — the
/// enumeration order sweep_exhaustive_gray uses, so the two paths are
/// comparable set-for-set.
class ExhaustiveGraySource final : public FaultSetSource {
 public:
  ExhaustiveGraySource(std::size_t n, std::size_t f);
  std::optional<std::uint64_t> size() const override { return enum_.count(); }
  bool next(std::vector<Node>& out) override;

 private:
  GraySubsetEnumerator enum_;
  bool first_ = true;
};

/// Line-delimited text feed: one fault set per line as whitespace-separated
/// node ids, blank lines and '#' comments skipped. Malformed lines —
/// non-numeric tokens (a leading '-' included) or node ids >= n — throw
/// ContractViolation naming the 1-based line number and the offending
/// token, so a bad feed fails with a diagnosable error instead of silent
/// misparsing; so does a line longer than kMaxLineBytes (common/parse.hpp),
/// which is never buffered whole. An empty file yields an empty stream.
/// This is the
/// `ftroute sweep --stdin` reader.
class IstreamFaultSetSource final : public FaultSetSource {
 public:
  IstreamFaultSetSource(std::istream& in, std::size_t n) : in_(&in), n_(n) {}
  bool next(std::vector<Node>& out) override;

 private:
  std::istream* in_;
  std::size_t n_;
  std::string line_;           // reused line buffer
  std::size_t line_no_ = 0;    // 1-based, for error messages
};

/// Progress snapshot handed to a sweep's progress callback (aggregates so
/// far; sets_done counts fully merged sets).
struct FaultSweepProgress {
  std::uint64_t sets_done = 0;
  std::uint32_t worst_diameter = 0;
  std::uint64_t disconnected = 0;
  double seconds = 0.0;
};

using SweepProgressFn = std::function<void(const FaultSweepProgress&)>;

struct FaultSweepOptions {
  /// How the sweep executes — threads, batch size, progress cadence (see
  /// common/exec_policy.hpp for the resolution rules). Results never
  /// depend on any of it. exec.progress_every schedules on_progress below:
  /// invoked whenever the merged set count crosses a multiple of it (0 =
  /// never). Calls never overlap, but every sweep, bounded or streamed,
  /// makes them from its executor workers, under the merge lock.
  ExecPolicy exec;
  /// Ordered survivor pairs to sample per fault set for delivery stats;
  /// 0 skips delivery measurement entirely.
  std::size_t delivery_pairs = 0;
  /// Root seed for the sampled sets and the per-set delivery streams.
  std::uint64_t seed = 0;
  SweepProgressFn on_progress;
};

struct FaultSweepSummary {
  /// Sets processed.
  std::uint64_t total_sets = 0;

  /// diameter_histogram[d] = number of sets with finite surviving diameter
  /// d; disconnected sets are counted separately.
  std::vector<std::uint64_t> diameter_histogram;
  std::uint64_t disconnected = 0;

  /// Worst surviving diameter over the sweep (kUnreachable if any set
  /// disconnects), the first input index attaining it, and that set.
  std::uint32_t worst_diameter = 0;
  std::size_t worst_index = 0;
  std::vector<Node> worst_faults;

  /// Delivery aggregates over all sampled pairs of all sets (zero when
  /// delivery_pairs == 0).
  std::uint64_t pairs_sampled = 0;
  std::uint64_t delivered = 0;
  double avg_route_hops = 0.0;  // mean over delivered messages
  std::uint32_t max_route_hops = 0;
  std::uint64_t max_edge_hops = 0;

  /// Execution telemetry (not part of the deterministic result).
  unsigned threads_used = 1;
  double seconds = 0.0;
  double fault_sets_per_sec = 0.0;
  /// Executor counters accumulated over every unit of the sweep.
  ExecutorStats executor;
};

/// Expands a fully merged partial into the deterministic fields of a
/// summary (total_sets, histogram, worst witness, delivery aggregates; the
/// mean is computed here, once, from the exact totals). Telemetry fields
/// (threads_used, seconds, rate, executor) are the caller's to fill.
FaultSweepSummary summarize_sweep_partial(const SweepPartial& partial);

/// The whole-space sweep unit of `kind` over task indices [0, count),
/// carrying the sweep's seed, delivery pairs, and execution policy.
UnitSpec sweep_unit(UnitKind kind, std::size_t f, std::uint64_t count,
                    const FaultSweepOptions& options);

/// Throws ContractViolation, with a message naming the unit kind, unless
/// `unit` can run over `n` nodes: its window must not be inverted, a
/// kSweepExplicit unit must carry exactly end - begin sets, every other
/// kind needs f <= n, and a kSweepGray window must lie inside
/// [0, C(n, f)). execute_unit runs it on every unit, and DistSweepPool::run
/// on the whole unit before splitting it (so a window that splits into no
/// units is refused all the same).
void check_unit(const UnitSpec& unit, std::size_t n);

/// THE unit executor: runs every set of `unit`'s global window and returns
/// the partial for it — a pure function of (index, unit's sets,
/// delivery_pairs, seed), whatever the unit's ExecPolicy says. It walks the
/// window as described at the top of this file. The unit must pass
/// check_unit. `on_progress` fires under the merge lock whenever the merged
/// count crosses a multiple of the unit's exec.progress_every; executor
/// telemetry accumulates into *executor when given. Worker processes, the
/// coordinator's inline fallback, the tolerance check, serve, the CLI, and
/// the bounded wrappers below call it; the stream wrappers run its chunk
/// loop over chunks they pull from their source.
SweepPartial execute_unit(const SrgIndex& index, const UnitSpec& unit,
                          const SweepProgressFn& on_progress = {},
                          ExecutorStats* executor = nullptr);

/// execute_unit plus the summary's telemetry (threads, wall time, rate,
/// executor counters).
FaultSweepSummary sweep_unit_summary(const SrgIndex& index,
                                     const UnitSpec& unit,
                                     const SweepProgressFn& on_progress = {});

/// The wrappers below take the table only to check it against the index
/// (same node count); every set is evaluated on the index.
///
/// Exhaustive Gray sweep restricted to revolving-door ranks
/// [begin_rank, end_rank): one kSweepGray unit. The partial's worst_faults
/// is unranked from the winning global rank.
SweepPartial sweep_exhaustive_gray_range(const RoutingTable& table,
                                         const SrgIndex& index, std::size_t f,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const FaultSweepOptions& options = {},
                                         ExecutorStats* executor = nullptr);

/// Streams `source` through the executor at constant memory in one
/// parallel_for_chunks call, as described at the top of this file: each
/// worker pulls chunks of resolved_batch() sets under the read lock and
/// merges their partials (and fires progress) under the merge lock. A
/// source of known size() runs on at most one worker per chunk, so a list
/// shorter than one chunk spawns no thread. If next() throws, no worker
/// reads past it, and the exception is rethrown after the join (the
/// failure at the lowest read position wins, so a bad feed line reports
/// the same message at any thread count). The deterministic fields are a
/// pure function of (table, the source's sets, options.delivery_pairs,
/// options.seed).
FaultSweepSummary sweep_fault_source(const RoutingTable& table,
                                     const SrgIndex& index,
                                     FaultSetSource& source,
                                     const FaultSweepOptions& options = {});

/// Exhaustive sweep over all C(n, f) fault sets in revolving-door order:
/// one kSweepGray unit over every rank. Requires C(n, f) to be
/// representable (no uint64 saturation).
FaultSweepSummary sweep_exhaustive_gray(const RoutingTable& table,
                                        const SrgIndex& index, std::size_t f,
                                        const FaultSweepOptions& options = {});

/// Sweeps an in-memory list (sweep_fault_source over an ExplicitListSource).
FaultSweepSummary sweep_fault_sets(const RoutingTable& table,
                                   const SrgIndex& index,
                                   const std::vector<std::vector<Node>>& fault_sets,
                                   const FaultSweepOptions& options = {});

/// Convenience overload that builds the index itself.
FaultSweepSummary sweep_fault_sets(const RoutingTable& table,
                                   const std::vector<std::vector<Node>>& fault_sets,
                                   const FaultSweepOptions& options = {});

}  // namespace ftr
