#include "common/exec_policy.hpp"

#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"

namespace ftr {

const char* srg_kernel_name(SrgKernel kernel) {
  switch (kernel) {
    case SrgKernel::kAuto:
      return "auto";
    case SrgKernel::kScalar:
      return "scalar";
    case SrgKernel::kBitset:
      return "bitset";
    case SrgKernel::kPacked:
      return "packed";
  }
  return "auto";
}

std::optional<SrgKernel> parse_srg_kernel(std::string_view name) {
  if (name == "auto") return SrgKernel::kAuto;
  if (name == "scalar") return SrgKernel::kScalar;
  if (name == "bitset") return SrgKernel::kBitset;
  if (name == "packed") return SrgKernel::kPacked;
  return std::nullopt;
}

unsigned ExecPolicy::resolved_threads() const {
  return resolve_threads(threads);
}

unsigned ExecPolicy::resolved_lanes() const {
  return resolve_lane_width(lanes);
}

SrgKernel ExecPolicy::resolved_kernel(bool gray_adjacent,
                                      bool materialize_per_set) const {
  if (kernel == SrgKernel::kScalar || kernel == SrgKernel::kBitset) {
    return kernel;
  }
  // kAuto and kPacked: packed wherever it applies (Gray-adjacent streams
  // that never need a per-set surviving graph), bitset everywhere else.
  if (gray_adjacent && !materialize_per_set) return SrgKernel::kPacked;
  return SrgKernel::kBitset;
}

// --- flag registry -----------------------------------------------------------

const std::vector<ExecFlagInfo>& exec_flag_registry() {
  static const std::vector<ExecFlagInfo> registry = {
      {kExecFlagThreads, "--threads", "T",
       "worker threads (0 = all cores, capped at 256; default 1)"},
      {kExecFlagKernel, "--kernel", "K",
       "SRG kernel: auto | scalar | bitset | packed (default auto)"},
      {kExecFlagLanes, "--lanes", "L",
       "packed block width: auto | 64 | 128 | 256 | 512 (default auto;\n"
       "        auto honors FTROUTE_FORCE_LANE_WIDTH, then cpuid; an explicit\n"
       "        width beats the env pin)"},
      {kExecFlagBatch, "--batch", "B",
       "items per worker per batch"},
      {kExecFlagProgress, "--progress-every", "N",
       "emit a progress line to stderr every N items (0 = never)"},
  };
  return registry;
}

namespace {

[[noreturn]] void missing_value(const char* flag) {
  throw std::runtime_error(std::string("missing value for ") + flag);
}

[[noreturn]] void bad_value(const std::string& value, const char* flag,
                            const char* expected) {
  throw std::runtime_error("bad value '" + value + "' for " + flag +
                           (expected != nullptr && expected[0] != '\0'
                                ? std::string(" (") + expected + ")"
                                : std::string()));
}

std::uint64_t parse_flag_u64(const std::string& value, const char* flag) {
  const auto v = parse_u64(value);
  if (!v.has_value()) bad_value(value, flag, "");
  return *v;
}

unsigned parse_flag_u32(const std::string& value, const char* flag) {
  const std::uint64_t v = parse_flag_u64(value, flag);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error(std::string("value too large for ") + flag);
  }
  return static_cast<unsigned>(v);
}

void apply_exec_flag(unsigned bit, const std::string& value,
                     ExecPolicy& policy) {
  switch (bit) {
    case kExecFlagThreads:
      policy.threads = parse_flag_u32(value, "--threads");
      return;
    case kExecFlagKernel: {
      const auto parsed = parse_srg_kernel(value);
      if (!parsed.has_value()) {
        bad_value(value, "--kernel", "auto|scalar|bitset|packed");
      }
      policy.kernel = *parsed;
      return;
    }
    case kExecFlagLanes: {
      const auto parsed = parse_lane_width(value);
      if (!parsed.has_value()) {
        bad_value(value, "--lanes", "auto|64|128|256|512");
      }
      policy.lanes = *parsed;
      return;
    }
    case kExecFlagBatch:
      policy.batch_size =
          static_cast<std::size_t>(parse_flag_u64(value, "--batch"));
      return;
    case kExecFlagProgress:
      policy.progress_every = parse_flag_u64(value, "--progress-every");
      return;
    default:
      FTR_ASSERT_MSG(false, "unknown exec flag bit " << bit);
  }
}

}  // namespace

ExecFlagParse parse_exec_flag(unsigned mask,
                              const std::vector<std::string>& args,
                              std::size_t i, ExecPolicy& policy) {
  FTR_EXPECTS(i < args.size());
  for (const auto& info : exec_flag_registry()) {
    if ((mask & info.bit) == 0 || args[i] != info.flag) continue;
    if (i + 1 >= args.size()) missing_value(info.flag);
    apply_exec_flag(info.bit, args[i + 1], policy);
    return {true, 2};
  }
  return {false, 0};
}

std::string exec_policy_usage(unsigned mask) {
  std::string out;
  for (const auto& info : exec_flag_registry()) {
    if ((mask & info.bit) == 0) continue;
    std::string line = std::string("  ") + info.flag + " " + info.value_name;
    // Pad the flag column so help lines align, matching the hand-written
    // usage style the goldens pinned.
    while (line.size() < 22) line.push_back(' ');
    out += line + info.help + "\n";
  }
  return out;
}

// --- wire encoding -----------------------------------------------------------

namespace {

constexpr std::uint32_t kExecPolicyVersion = 2;
// v2 payload after the version word: u32 threads | u8 kernel | u32 lanes |
// u64 batch_size. (v1 also carried an executor byte and progress_every.)
constexpr std::size_t kExecPolicyPayloadBytes = 4 + 1 + 4 + 8;

void put_u32(std::uint32_t v, std::vector<unsigned char>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void put_u64(std::uint64_t v, std::vector<unsigned char>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const unsigned char* data, std::size_t& pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 4;
  return v;
}

std::uint64_t get_u64(const unsigned char* data, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

}  // namespace

void encode_exec_policy(const ExecPolicy& policy,
                        std::vector<unsigned char>& out) {
  put_u32(kExecPolicyVersion, out);
  put_u32(policy.threads, out);
  out.push_back(static_cast<unsigned char>(policy.kernel));
  put_u32(policy.lanes, out);
  put_u64(policy.batch_size, out);
}

ExecPolicy decode_exec_policy(const unsigned char* data, std::size_t size,
                              std::size_t& pos) {
  FTR_EXPECTS_MSG(size >= pos && size - pos >= 4,
                  "exec policy truncated before version word");
  const std::uint32_t version = get_u32(data, pos);
  FTR_EXPECTS_MSG(version == kExecPolicyVersion,
                  "exec policy version " << version
                                         << " not understood (expected "
                                         << kExecPolicyVersion << ")");
  FTR_EXPECTS_MSG(size - pos >= kExecPolicyPayloadBytes,
                  "exec policy v" << kExecPolicyVersion
                                  << " payload truncated");
  ExecPolicy policy;
  policy.threads = get_u32(data, pos);
  const unsigned char kernel = data[pos++];
  FTR_EXPECTS_MSG(kernel <= static_cast<unsigned char>(SrgKernel::kPacked),
                  "exec policy kernel byte " << static_cast<unsigned>(kernel)
                                             << " out of range");
  policy.kernel = static_cast<SrgKernel>(kernel);
  policy.lanes = get_u32(data, pos);
  FTR_EXPECTS_MSG(policy.lanes == 0 || is_valid_lane_width(policy.lanes),
                  "exec policy lane width " << policy.lanes << " out of range");
  policy.batch_size = static_cast<std::size_t>(get_u64(data, pos));
  return policy;
}

}  // namespace ftr
