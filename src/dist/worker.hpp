// The worker side of the distributed sweep layer: a forked child that loads
// the table snapshot (from a file path or an inherited fd), then sits in a
// blocking frame loop — read one UnitSpec, execute it, write back exactly
// one result frame. Workers never touch stdout; the coordinator owns all
// user-visible output.
//
// execute_unit (analysis/fault_sweep.hpp) is the single execution
// authority: worker processes and the coordinator's inline fallback
// (dead/hung worker, zero live workers) both call it, so a re-executed
// unit cannot produce a different partial than the worker would have.
#pragma once

#include <cstdint>

#include "dist/wire.hpp"
#include "routing/serialization.hpp"

namespace ftr {

/// Failure injection for the robustness tests. FTROUTE_TEST_WORKER_FAIL =
/// "exit:W:U" (worker W exits mid-unit) or "hang:W:U" (worker W hangs until
/// killed), where U is the 0-based ordinal of the unit AS RECEIVED by that
/// worker. Unset, empty, or malformed specs parse to kNone.
struct WorkerFailSpec {
  enum class Mode : std::uint8_t { kNone, kExit, kHang };
  Mode mode = Mode::kNone;
  std::uint32_t worker = 0;
  std::uint64_t unit_ordinal = 0;
};

WorkerFailSpec parse_worker_fail_spec(const char* spec);

/// The worker process body. Returns the exit code the child should _exit
/// with: 0 on clean shutdown (EOF on in_fd), nonzero on protocol or
/// execution failure (an execution exception is also reported to the
/// coordinator as a kError frame before exiting).
int run_worker_loop(int in_fd, int out_fd, const TableSnapshot& snapshot,
                    std::uint32_t worker_index);

}  // namespace ftr
