// Deterministic chunked parallelism for the fault-sweep layer.
//
// Every experiment in this repo sweeps thousands of independent fault sets
// against one routing table, so the execution model is a plain data-parallel
// fan-out. What makes it worth a dedicated layer is the determinism
// contract: sweep results must be bit-identical for ANY thread count, so
//
//  * work is split into chunks of a fixed grain over [0, count) — chunk
//    boundaries are a function of (count, grain) only, never of the thread
//    count or of scheduling;
//  * every chunk's result is keyed by chunk/item index or folded with an
//    order-free merge (merge_sweep_partials), so no reduce depends on which
//    thread ran what or when it finished;
//  * randomized tasks draw from counter-based streams (Rng::stream) keyed
//    by item index, not from a shared generator whose consumption order
//    would depend on scheduling.
//
// The scheduler is one shared atomic cursor: every worker claims the next
// unclaimed chunk id, so chunks are claimed in ascending index order and
// each worker runs an ascending subsequence of them. The calling thread is
// worker 0, and every chunk body is told which worker runs it, so callers
// can keep per-worker state (SrgScratch) that stays on one thread.
//
// What is deterministic and what is not:
//  * deterministic: chunk boundaries (a function of (count, grain) only)
//    and the claim order (ascending chunk ids);
//  * NOT deterministic: which worker runs a chunk, the order in which
//    chunks finish, and the ExecutorStats counters. Bodies must never key
//    results by worker.
//
// parallel_for_chunks is the only primitive; everything above it (adversary
// searches, tolerance sweeps, recovery sweeps, the CLI `sweep` and `serve`
// verbs) is a chunked map plus an order-free reduce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace ftr {

/// Worker body for one chunk: half-open item range [begin, end), the
/// chunk's index (chunks cover [0, count) in order; chunk i spans
/// chunk_bounds(i, count, grain)), and the id of the worker
/// running it (0 = the calling thread; always below the worker count, and
/// so below resolve_threads(threads)).
using ChunkBody = std::function<void(std::size_t chunk, std::size_t begin,
                                     std::size_t end, unsigned worker)>;

/// Number of hardware threads (>= 1 even when the runtime reports 0).
unsigned hardware_threads();

/// Maps the user-facing thread request to an actual worker count:
/// 0 = "all hardware threads", anything else is taken literally. Both
/// branches are capped at 256 to keep a typo'd request — or a huge host's
/// hardware report — from fork-bombing the process.
unsigned resolve_threads(unsigned requested);

/// The pure mapping behind resolve_threads(requested), with the hardware
/// report injected so every branch is unit-testable: `hardware` stands in
/// for std::thread::hardware_concurrency(), whose 0 ("unknown") return
/// falls back to 1 worker. Requests above the hardware count are honored
/// as-is (deliberate: the determinism suites oversubscribe small hosts with
/// threads=8 to vary scheduling) up to the 256 cap, which binds on BOTH
/// branches — an "all hardware" request on a machine reporting more than
/// 256 threads is clamped like an explicit request would be.
unsigned resolve_threads(unsigned requested, unsigned hardware);

/// Chunks [0, count) for the given grain (grain 0 = one chunk per item),
/// and chunk `chunk`'s item range [begin, end). Neither wraps, even at
/// count = SIZE_MAX.
std::size_t num_chunks(std::size_t count, std::size_t grain);
std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t chunk,
                                                 std::size_t count,
                                                 std::size_t grain);

/// Execution telemetry from one parallel_for_chunks call (or a sum over
/// several — see accumulate). Everything here is scheduling-dependent and
/// therefore NOT deterministic; it exists for stderr probes and benches,
/// never for results.
struct ExecutorStats {
  /// Workers the executor actually ran (max over calls when accumulated).
  unsigned workers = 0;
  /// Every chunk run (the name is the one bench/e2e/bench_e2e.cpp reads).
  std::uint64_t chunks_local = 0;
  /// Always 0: the cursor executor never steals. Kept only because the
  /// end-to-end bench (bench/e2e/bench_e2e.cpp) still reads them.
  std::uint64_t chunks_stolen = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;

  /// Folds another call's stats into this one (counters add, workers max):
  /// the shape the per-batch telemetry loops in sweep/serve want.
  void accumulate(const ExecutorStats& other);
};

/// Runs `body` over all chunks of [0, count) on `threads` workers (the
/// calling thread is one of them; threads <= 1 runs inline with no spawns).
/// Chunk boundaries depend only on (count, grain). Workers claim chunks from
/// the shared cursor in ascending order (see the header comment); any chunk
/// may run on any worker and finish in any order (see the header comment).
/// If a body throws, all unclaimed chunks are abandoned and the failing
/// exception (lowest chunk index among those that threw) is rethrown on the
/// caller. When `stats` is non-null it is overwritten with this call's
/// execution telemetry.
void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t grain, const ChunkBody& body,
                         ExecutorStats* stats = nullptr);

/// Grain heuristic for sweeps: aims for ~8 chunks per worker so scheduling
/// overhead stays cold, while never exceeding `count`. Uses ceiling
/// division, so the resulting chunk count never overshoots the ~8/worker
/// target (floor division drifted to ~2x the target near count =
/// 16*workers - 1). Depends only on its arguments, so two runs with the
/// same inputs chunk identically.
std::size_t sweep_grain(std::size_t count, unsigned threads);

}  // namespace ftr
