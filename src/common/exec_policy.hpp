// The ONE execution policy: every knob that shapes HOW an evaluation runs
// — never WHAT it computes — lives in this struct, with one resolution
// authority, one flag registry, and one wire encoding.
//
// Every layer that fans work out (the fault-sweep engine, the adversary
// searches, the tolerance check, the request router, the distributed
// coordinator and its forked workers, and every CLI verb) composes an
// ExecPolicy instead of redeclaring {threads, kernel, lanes, batch} — so a
// new knob is added HERE, parsed HERE, resolved HERE, and shipped over the
// wire HERE, and reaches all six layers without touching their option
// structs.
//
// Determinism contract: NOTHING in an ExecPolicy may affect any result or
// any stdout byte. Threads, kernel, lanes, batch size, and progress
// cadence are pure throughput/telemetry knobs; the differential
// suites and tools/cli_smoke.sh enforce bit-identical output across all of
// them.
//
// Resolution rules (the single canonical statement):
//
//  * threads — resolve_threads(threads): 0 means "all hardware threads";
//    any value is capped at 256 (fork-bomb guard, binding on both
//    branches). See common/parallel.hpp.
//  * kernel — the kAuto rule: single-set evaluation runs the bitset BFS;
//    consumers that enumerate Gray-adjacent fault sets (the exhaustive
//    sweeps and the gray adversary scan) run packed. Packed requires Gray
//    adjacency and cannot materialize per-set surviving graphs, so for
//    non-Gray streams — and for Gray sweeps that sample delivery
//    (delivery_pairs > 0) — kPacked degrades to the bitset kernel.
//    resolved_kernel() below encodes this.
//  * lanes — the packed block width. PRECEDENCE (pinned here and only
//    here): an explicit width (64/128/256/512, from `--lanes` or a struct
//    field) is honored VERBATIM and beats everything; 0 ("auto") consults
//    the FTROUTE_FORCE_LANE_WIDTH environment variable first (the CI hook
//    that pins deterministic widths on heterogeneous runners), then falls
//    back to the cpuid probe: 512 with AVX-512F, 256 with AVX2, else 128.
//    So `--lanes 64` wins over FTROUTE_FORCE_LANE_WIDTH=512, and the env
//    var only ever fills an "auto" request. A malformed env value fails
//    loudly. See common/cpu_features.hpp for the probe.
//  * batch_size / progress_every — taken literally; consumers clamp
//    batch_size to >= 1 (and the router additionally caps it at 2^20).
//    progress_every is local to the process that reports progress, so the
//    wire encoding does not carry it (workers decode it as 0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ftr {

/// BFS kernel selection for SRG evaluation. Every kernel returns
/// bit-identical results; only throughput differs. (The kernels themselves
/// live in fault/srg_engine.hpp; the selector lives here because it is an
/// execution-policy knob, parsed and shipped like the others.)
enum class SrgKernel : std::uint8_t { kAuto, kScalar, kBitset, kPacked };

/// "auto" / "scalar" / "bitset" / "packed".
const char* srg_kernel_name(SrgKernel kernel);

/// Inverse of srg_kernel_name; nullopt on unknown names.
std::optional<SrgKernel> parse_srg_kernel(std::string_view name);

struct ExecPolicy {
  /// Worker threads (0 = all hardware threads, capped at 256).
  unsigned threads = 1;
  /// SRG evaluation kernel (kAuto rule in the header comment).
  SrgKernel kernel = SrgKernel::kAuto;
  /// Packed lane width: 0 = auto (FTROUTE_FORCE_LANE_WIDTH, then cpuid),
  /// or 64/128/256/512 to force one (explicit beats the env pin).
  unsigned lanes = 0;
  /// Items per worker per batch/window in the streaming engines.
  std::size_t batch_size = 1024;
  /// Progress callback cadence in items (0 = never). The callback itself
  /// stays on the consuming option struct (it is not wire-encodable).
  std::uint64_t progress_every = 0;

  /// resolve_threads(threads): the actual worker count.
  unsigned resolved_threads() const;

  /// resolve_lane_width(lanes): the width the packed kernel will run.
  unsigned resolved_lanes() const;

  /// The kernel that will actually evaluate, applying the kAuto rule:
  /// `gray_adjacent` = the consumer enumerates Gray-adjacent fault sets;
  /// `materialize_per_set` = each set needs its own surviving graph
  /// (delivery sampling), which the packed kernel cannot provide. Never
  /// returns kAuto.
  SrgKernel resolved_kernel(bool gray_adjacent,
                            bool materialize_per_set = false) const;
};

// --- flag registry -----------------------------------------------------------
//
// The CLI-facing declaration of the policy flags, so every verb parses them
// identically and usage text cannot drift from what the parser accepts.

/// Bitmask naming which policy flags a verb accepts.
enum ExecFlagBit : unsigned {
  kExecFlagThreads = 1u << 0,   // --threads N
  kExecFlagKernel = 1u << 1,    // --kernel auto|scalar|bitset|packed
  kExecFlagLanes = 1u << 2,     // --lanes auto|64|128|256|512
  kExecFlagBatch = 1u << 3,     // --batch B
  kExecFlagProgress = 1u << 4,  // --progress-every N
};

/// Every evaluating verb's default mask.
inline constexpr unsigned kExecFlagsAll = kExecFlagThreads | kExecFlagKernel |
                                          kExecFlagLanes | kExecFlagBatch |
                                          kExecFlagProgress;

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
/// truncation, any version but the current one, and out-of-range enum
/// values all throw (ContractViolation) — a torn frame must never decode
/// into a plausible policy.
ExecPolicy decode_exec_policy(const unsigned char* data, std::size_t size,
                              std::size_t& pos);

}  // namespace ftr
