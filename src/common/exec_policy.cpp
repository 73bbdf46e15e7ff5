#include "common/exec_policy.hpp"

#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"

namespace ftr {

unsigned ExecPolicy::resolved_threads() const {
  return resolve_threads(threads);
}

// --- flag registry -----------------------------------------------------------

const std::vector<ExecFlagInfo>& exec_flag_registry() {
  static const std::vector<ExecFlagInfo> registry = {
      {kExecFlagThreads, "--threads", "T",
       "worker threads (0 = all cores, capped at 256; default 1)"},
      {kExecFlagBatch, "--batch", "B",
       "items per worker per batch"},
      {kExecFlagProgress, "--progress-every", "N",
       "emit a progress line to stderr every N items (0 = never;\n"
       "        in-process only)"},
  };
  return registry;
}

namespace {

[[noreturn]] void missing_value(const char* flag) {
  throw std::runtime_error(std::string("missing value for ") + flag);
}

std::uint64_t parse_flag_u64(const std::string& value, const char* flag) {
  const auto v = parse_u64(value);
  if (!v.has_value()) {
    throw std::runtime_error("bad value '" + value + "' for " + flag);
  }
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

constexpr std::uint32_t kExecPolicyVersion = 3;
// v3 payload after the version word: u32 threads | u64 batch_size. Older
// versions carried knobs that no longer exist and are refused.
constexpr std::size_t kExecPolicyPayloadBytes = 4 + 8;

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
  policy.batch_size = static_cast<std::size_t>(get_u64(data, pos));
  return policy;
}

}  // namespace ftr
