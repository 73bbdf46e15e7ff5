// The ONE execution policy: every knob that shapes HOW an evaluation runs
// — never WHAT it computes — lives in this struct, with one resolution
// authority, one flag registry, and one wire encoding.
//
// Every layer that fans work out (the fault-sweep engine, the adversary
// searches, the tolerance check, the request router, the distributed
// coordinator and its forked workers, and every CLI verb) composes an
// ExecPolicy instead of redeclaring {threads, batch} — so a new knob is
// added HERE, parsed HERE, resolved HERE, and shipped over the wire HERE,
// and reaches all six layers without touching their option structs.
//
// Determinism contract: NOTHING in an ExecPolicy may affect any result or
// any stdout byte. Threads, batch size, and progress cadence are pure
// throughput/telemetry knobs; the differential suites and
// tools/cli_smoke.sh enforce bit-identical output across all of them.
//
// Resolution rules (the single canonical statement):
//
//  * threads — resolve_threads(threads): 0 means "all hardware threads";
//    any value is capped at 256 (fork-bomb guard, binding on both
//    branches). See common/parallel.hpp.
//  * batch_size / progress_every — taken literally; consumers clamp
//    batch_size to >= 1 (and the router additionally caps it at 2^20).
//    Exhaustive Gray scans round batch_size up to a multiple of the widest
//    packed lane width (lane_aligned, common/cpu_features.hpp), since a
//    chunk ending in a partial block pays for a full one.
//    progress_every is local to the process that reports progress, so the
//    wire encoding does not carry it (workers decode it as 0).
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
#include <string>
#include <vector>

namespace ftr {

struct ExecPolicy {
  /// Worker threads (0 = all hardware threads, capped at 256).
  unsigned threads = 1;
  /// Items per worker per batch/window in the streaming engines.
  std::size_t batch_size = 1024;
  /// Progress callback cadence in items (0 = never). The callback itself
  /// stays on the consuming option struct (it is not wire-encodable).
  std::uint64_t progress_every = 0;

  /// resolve_threads(threads): the actual worker count.
  unsigned resolved_threads() const;
};

// --- flag registry -----------------------------------------------------------
//
// The CLI-facing declaration of the policy flags, so every verb parses them
// identically and usage text cannot drift from what the parser accepts.

/// Bitmask naming which policy flags a verb accepts.
enum ExecFlagBit : unsigned {
  kExecFlagThreads = 1u << 0,   // --threads N
  kExecFlagBatch = 1u << 1,     // --batch B
  kExecFlagProgress = 1u << 2,  // --progress-every N
};

/// Every evaluating verb's default mask.
inline constexpr unsigned kExecFlagsAll =
    kExecFlagThreads | kExecFlagBatch | kExecFlagProgress;

/// One registry row: the flag, its value placeholder, and its help line.
struct ExecFlagInfo {
  unsigned bit;
  const char* flag;
  const char* value_name;
  const char* help;
};

/// The full registry, in canonical (usage) order.
const std::vector<ExecFlagInfo>& exec_flag_registry();

/// Outcome of offering argv[i] to the registry.
struct ExecFlagParse {
  /// argv[i] names a registry flag within `mask`.
  bool matched = false;
  /// argv entries consumed (flag + value) when matched.
  std::size_t consumed = 0;
};

/// Offers args[i] to the registry: when it names a policy flag enabled in
/// `mask`, consumes it (and its value) into `policy` and reports how many
/// argv entries that took. Unmatched flags return {false, 0} so the caller
/// can try its verb-specific flags. Throws std::runtime_error on a missing
/// or invalid value — strict, like every parser in this repo.
ExecFlagParse parse_exec_flag(unsigned mask,
                              const std::vector<std::string>& args,
                              std::size_t i, ExecPolicy& policy);

/// Usage lines ("  --threads N   ...") for the registry flags in `mask`,
/// generated from the same table parse_exec_flag consults.
std::string exec_policy_usage(unsigned mask);

// --- wire encoding -----------------------------------------------------------
//
// The ONE versioned policy encoding, used by the dist layer's UnitSpec so
// forked workers run exactly the coordinator's policy. Little-endian,
// versioned so a future field is an append + version bump here, not a new
// hand-rolled field in every frame codec.

/// Appends the versioned encoding of `policy` to `out` (every field but
/// progress_every).
void encode_exec_policy(const ExecPolicy& policy,
                        std::vector<unsigned char>& out);

/// Decodes one policy from data[pos..), advancing `pos` past it. Strict:
/// truncation and any version but the current one throw
/// (ContractViolation) — a torn frame must never decode into a plausible
/// policy.
ExecPolicy decode_exec_policy(const unsigned char* data, std::size_t size,
                              std::size_t& pos);

}  // namespace ftr
