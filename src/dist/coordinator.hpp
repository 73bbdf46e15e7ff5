// The coordinator side of the distributed sweep layer: forks a pool of
// worker processes (pipe pair each, single host), splits a whole-space
// UnitSpec (fault/work_unit.hpp) into windows, fans them over the workers,
// and merges each returned partial as it lands with merge_sweep_partials,
// the order-free merge the in-process executor uses. Because units carry
// GLOBAL indices, the merged result — every aggregate, the worst witness,
// the set count — is bit-identical to the in-process computation for ANY
// worker count, ANY unit size and ANY completion order. A distributed
// check is the ordinary check_tolerance decision tree with run() as the
// runner of its sweep unit.
//
// Robustness: a worker that dies mid-unit has its window requeued for the
// survivors (or executed inline by the coordinator when none remain); a
// worker that hangs past the per-unit timeout is SIGKILLed and its unit runs
// inline — so a unit is re-dispatched, never lost and never double-counted:
// each unit id merges exactly once, and a run that merges one twice or
// never throws. Every unit runs to completion, so the pipes are drained
// between calls and the pool can be reused.
//
// Table acquisition is snapshot-fed: workers load the binary snapshot
// AFTER the fork — from the original file when the CLI input was already a
// snapshot, otherwise from an unlinked temp file the coordinator serializes
// once and the children inherit by fd (positional reads, so all children
// share one file description safely). The parent's heap is never relied on
// post-fork.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "analysis/fault_sweep.hpp"
#include "dist/wire.hpp"
#include "routing/serialization.hpp"

namespace ftr {

struct DistPoolOptions {
  /// Worker processes to fork. Must be >= 1 (0 workers means "don't build a
  /// pool" — the callers keep the in-process path for that).
  unsigned workers = 1;
  /// Task items (subset ranks, sample indices, literal sets) per unit; 0 = auto (~8 units per worker over the task space,
  /// clamped to [1, 65536] and rounded up to a multiple of kMaxLaneWidth,
  /// so that every unit kind runs whole packed blocks and a window under
  /// 512 items stays one unit; streams of unknown length use 4096).
  std::uint64_t unit_items = 0;
  /// How units execute INSIDE each worker process (the process x thread
  /// hierarchy): exec.threads is the per-worker thread count, and the batch
  /// size rides along unchanged. Unit boundaries are invariant under every
  /// knob, so stdout never depends on any of them.
  ExecPolicy exec;
  /// Per-unit wall-clock budget; a worker that blows it is SIGKILLed and
  /// its unit runs inline. 0 disables the watchdog.
  double unit_timeout_sec = 300.0;
};

struct DistWorkerStats {
  std::uint64_t units = 0;  // completed by this worker
  std::uint64_t items = 0;  // task items inside those units
  std::uint64_t bytes_rx = 0;
  double busy_seconds = 0.0;
};

/// Coordinator telemetry (scheduling-dependent — stderr probes, never part
/// of the deterministic result). Accumulates over the pool's lifetime.
struct DistStats {
  std::uint64_t units_dispatched = 0;
  std::uint64_t units_completed = 0;  // by workers
  std::uint64_t units_retried = 0;    // requeued after a worker died
  std::uint64_t units_inline = 0;     // executed by the coordinator itself
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  unsigned workers_spawned = 0;
  unsigned workers_exited = 0;  // died on their own (EOF/EPIPE)
  unsigned workers_killed = 0;  // hung past the timeout, SIGKILLed
  std::vector<DistWorkerStats> per_worker;
};

class DistSweepPool {
 public:
  /// Forks options.workers children immediately. `snapshot` must outlive
  /// the pool (it backs the inline fallback); `snapshot_path` names the
  /// snapshot file workers should mmap, or "" to have the coordinator
  /// serialize `snapshot` into an unlinked temp file the children inherit
  /// by fd. Children load without RoutingTable::validate: the caller
  /// validated `snapshot` (the CLI gets it from load_table_inputs, which
  /// read the very file at `snapshot_path`). Call from a
  /// single-threaded process state (the parallel executor joins its
  /// threads per call, so any point between sweeps qualifies).
  DistSweepPool(const TableSnapshot& snapshot, std::string snapshot_path,
                const DistPoolOptions& options);
  ~DistSweepPool();
  DistSweepPool(const DistSweepPool&) = delete;
  DistSweepPool& operator=(const DistSweepPool&) = delete;

  /// Splits `whole`'s window [begin, end) into auto_unit_items-sized units
  /// (threads/batch are the pool's per-worker knobs), runs them over the
  /// workers through execute_unit, and merges the partials as they land —
  /// exactly what execute_unit returns in process, for any unit kind.
  SweepPartial run(const UnitSpec& whole);

  /// run() over every Gray rank of the f-subsets.
  SweepPartial sweep_exhaustive(std::size_t f,
                                const FaultSweepOptions& sweep_options);
  /// Consumes `source` on the coordinator, re-chunking it into explicit-set
  /// units (this is how unbounded stdin feeds distribute).
  SweepPartial sweep_source(FaultSetSource& source,
                            const FaultSweepOptions& sweep_options);

  const DistStats& stats() const { return stats_; }
  unsigned live_workers() const;

 private:
  struct Worker;

  [[noreturn]] void child_main(int in_fd, int out_fd, unsigned index);
  void spawn_workers();
  /// Items per unit over a window of `total` items: unit_items when set
  /// (taken literally), else the auto rule in DistPoolOptions::unit_items.
  std::uint64_t auto_unit_items(std::uint64_t total) const;

  using UnitFeed = SweepUnitFeed;

  /// The event loop: pulls units from `feed` (which assigns no ids — the
  /// pool numbers them 0..k in generation order), dispatches, recovers,
  /// and merges each result as it lands, exactly once per unit id.
  SweepPartial fold(const UnitFeed& feed);
  UnitSpec pool_unit(UnitSpec unit) const;
  UnitFeed split(const UnitSpec& whole) const;

  const TableSnapshot* snapshot_;
  std::string snapshot_path_;
  DistPoolOptions options_;
  DistStats stats_;
  std::vector<Worker> workers_;
  int payload_fd_ = -1;
};

}  // namespace ftr
