// The ONE execution policy: every knob that shapes HOW an evaluation runs
// — never WHAT it computes — lives in this struct, with one resolution
// authority.
//
// Every layer that fans work out (the fault-sweep engine, the adversary
// searches, the tolerance check, the request router, the distributed
// coordinator and its forked workers, and every CLI verb) composes an
// ExecPolicy instead of redeclaring {threads, batch}. The CLI parses the
// fields as ordinary verb flags (cli/cli_support.hpp), and the dist layer
// ships threads and batch_size as two plain fields of its unit frame
// (dist/wire.hpp).
//
// Determinism contract: NOTHING in an ExecPolicy may affect any result or
// any stdout byte. Threads, batch size, and progress cadence are pure
// throughput/telemetry knobs; the differential suites and
// tools/cli_smoke.sh enforce bit-identical output across all of them.
//
// Resolution rules (the single canonical statement):
//
//  * threads — resolved_threads(): 0 means "all hardware threads"; any
//    value is capped at 256 (fork-bomb guard). See common/parallel.hpp.
//  * batch_size — resolved_batch(): clamped to [1, 2^20], so it can
//    neither be zero nor wrap: the sets per chunk of every sweep, bounded
//    or streamed (a stream buffers at most batch x threads sets), and the
//    requests per worker in each of serve's windows. Exhaustive Gray scans
//    round it up to a multiple of the widest packed lane width
//    (lane_aligned, common/cpu_features.hpp), since a chunk ending in a
//    partial block pays for a full one.
//  * progress_every — taken literally (0 = never). It is local to the
//    process that reports progress, so the unit frame does not carry it
//    (workers decode it as 0).
//
// The SRG evaluation kernel and the packed lane width are NOT policy: the
// code picks them from what it observes. Sweeps run every block of sets on
// the packed kernel — Gray blocks always, blocks of unrelated sets once
// they hold enough sets to profit, which the set count and the lane width
// decide — and the rest, like every single-set evaluation, on the bitset
// kernel. A batch size therefore never selects a kernel's output, only
// which kernel computes it. The lane width is the widest the CPU profits
// from (cpuid, see common/cpu_features.hpp). See fault/srg_engine.hpp for
// the kernels.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ftr {

struct ExecPolicy {
  /// Worker threads (0 = all hardware threads, capped at 256).
  unsigned threads = 1;
  /// Items per chunk (sweeps, bounded or streamed) or per worker per
  /// window (serve's requests).
  std::size_t batch_size = 1024;
  /// Progress callback cadence in items (0 = never). The callback itself
  /// stays on the consuming option struct.
  std::uint64_t progress_every = 0;

  /// resolve_threads(threads): the actual worker count.
  unsigned resolved_threads() const;
  /// batch_size clamped to [1, 2^20]: the batch every consumer sizes its
  /// chunks (and serve its windows) with.
  std::size_t resolved_batch() const;
};

}  // namespace ftr
