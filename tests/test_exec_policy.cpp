#include "common/exec_policy.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "dist/coordinator.hpp"
#include "dist/wire.hpp"
#include "fault/adversary.hpp"
#include "fault/tolerance_check.hpp"
#include "serve/request_router.hpp"

namespace ftr {
namespace {

// setenv/unsetenv scope guard (same shape as test_cpu_features.cpp): every
// test leaves FTROUTE_FORCE_LANE_WIDTH exactly as it found it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

constexpr const char* kEnv = "FTROUTE_FORCE_LANE_WIDTH";

// ---- name/parse round-trips -------------------------------------------------

TEST(ExecPolicy, KernelNamesRoundTrip) {
  for (SrgKernel k : {SrgKernel::kAuto, SrgKernel::kScalar, SrgKernel::kBitset,
                      SrgKernel::kPacked}) {
    const auto parsed = parse_srg_kernel(srg_kernel_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_srg_kernel("vector").has_value());
  EXPECT_FALSE(parse_srg_kernel("").has_value());
}

// ---- flag registry ----------------------------------------------------------

TEST(ExecPolicy, RegistryCoversEveryBitExactlyOnce) {
  unsigned seen = 0;
  for (const ExecFlagInfo& f : exec_flag_registry()) {
    EXPECT_EQ(seen & f.bit, 0u) << f.flag << " bit registered twice";
    seen |= f.bit;
    EXPECT_NE(f.flag, nullptr);
    EXPECT_NE(f.value_name, nullptr);
    EXPECT_NE(f.help, nullptr);
  }
  EXPECT_EQ(seen, kExecFlagsAll);
}

TEST(ExecPolicy, ParseFlagsFillEveryField) {
  const std::vector<std::string> args = {
      "--threads", "4", "--kernel",         "packed", "--lanes", "256",
      "--batch",   "9", "--progress-every", "5"};
  ExecPolicy p;
  for (std::size_t i = 0; i < args.size();) {
    const ExecFlagParse r = parse_exec_flag(kExecFlagsAll, args, i, p);
    ASSERT_TRUE(r.matched) << args[i];
    i += r.consumed;
  }
  EXPECT_EQ(p.threads, 4u);
  EXPECT_EQ(p.kernel, SrgKernel::kPacked);
  EXPECT_EQ(p.lanes, 256u);
  EXPECT_EQ(p.batch_size, 9u);
  EXPECT_EQ(p.progress_every, 5u);
}

TEST(ExecPolicy, ParseFlagRespectsMask) {
  const std::vector<std::string> args = {"--batch", "9"};
  ExecPolicy p;
  const ExecFlagParse r =
      parse_exec_flag(kExecFlagThreads | kExecFlagKernel, args, 0, p);
  EXPECT_FALSE(r.matched);
  EXPECT_EQ(r.consumed, 0u);
  EXPECT_EQ(p.batch_size, 1024u);  // untouched
}

TEST(ExecPolicy, ParseFlagRejectsMissingAndBadValues) {
  ExecPolicy p;
  const std::vector<std::string> missing = {"--threads"};
  EXPECT_THROW(parse_exec_flag(kExecFlagsAll, missing, 0, p),
               std::runtime_error);
  const std::vector<std::string> bad_num = {"--threads", "12frog"};
  EXPECT_THROW(parse_exec_flag(kExecFlagsAll, bad_num, 0, p),
               std::runtime_error);
  const std::vector<std::string> bad_kernel = {"--kernel", "vector"};
  EXPECT_THROW(parse_exec_flag(kExecFlagsAll, bad_kernel, 0, p),
               std::runtime_error);
  const std::vector<std::string> bad_lanes = {"--lanes", "96"};
  EXPECT_THROW(parse_exec_flag(kExecFlagsAll, bad_lanes, 0, p),
               std::runtime_error);
  const std::vector<std::string> huge = {"--threads", "4294967296"};
  EXPECT_THROW(parse_exec_flag(kExecFlagsAll, huge, 0, p), std::runtime_error);
}

TEST(ExecPolicy, UsageMentionsExactlyTheMaskedFlags) {
  const std::string all = exec_policy_usage(kExecFlagsAll);
  for (const ExecFlagInfo& f : exec_flag_registry()) {
    EXPECT_NE(all.find(f.flag), std::string::npos) << f.flag;
  }
  const std::string some = exec_policy_usage(kExecFlagThreads | kExecFlagLanes);
  EXPECT_NE(some.find("--threads"), std::string::npos);
  EXPECT_NE(some.find("--lanes"), std::string::npos);
  EXPECT_EQ(some.find("--batch"), std::string::npos);
}

// ---- resolution -------------------------------------------------------------

TEST(ExecPolicy, ResolvedThreadsIsTheOneClamp) {
  ExecPolicy p;
  for (unsigned t : {0u, 1u, 2u, 7u, 256u, 300u, 100000u}) {
    p.threads = t;
    EXPECT_EQ(p.resolved_threads(), resolve_threads(t));
  }
  p.threads = 300;
  EXPECT_EQ(p.resolved_threads(), 256u);  // fork-bomb cap
  p.threads = 0;
  EXPECT_GE(p.resolved_threads(), 1u);  // "all cores" is at least one
}

TEST(ExecPolicy, ResolvedKernelAppliesTheAutoRule) {
  ExecPolicy p;
  // Explicit scalar/bitset pass through in every context.
  for (SrgKernel k : {SrgKernel::kScalar, SrgKernel::kBitset}) {
    p.kernel = k;
    EXPECT_EQ(p.resolved_kernel(true), k);
    EXPECT_EQ(p.resolved_kernel(false), k);
    EXPECT_EQ(p.resolved_kernel(true, true), k);
  }
  // kAuto and kPacked: packed iff Gray-adjacent and no per-set graphs.
  for (SrgKernel k : {SrgKernel::kAuto, SrgKernel::kPacked}) {
    p.kernel = k;
    EXPECT_EQ(p.resolved_kernel(/*gray_adjacent=*/true), SrgKernel::kPacked);
    EXPECT_EQ(p.resolved_kernel(/*gray_adjacent=*/false), SrgKernel::kBitset);
    EXPECT_EQ(p.resolved_kernel(true, /*materialize_per_set=*/true),
              SrgKernel::kBitset);
  }
}

TEST(ExecPolicy, ExplicitLanesBeatTheEnvPin) {
  // The precedence pinned in the header comment: an explicit width is
  // honored verbatim; FTROUTE_FORCE_LANE_WIDTH only ever fills "auto".
  ScopedEnv pin(kEnv, "512");
  ExecPolicy p;
  p.lanes = 64;
  EXPECT_EQ(p.resolved_lanes(), 64u);
  p.lanes = 0;
  EXPECT_EQ(p.resolved_lanes(), 512u);
}

TEST(ExecPolicy, LanesFlagBeatsTheEnvPinThroughTheParser) {
  ScopedEnv pin(kEnv, "512");
  ExecPolicy p;
  const std::vector<std::string> flag = {"--lanes", "64"};
  ASSERT_TRUE(parse_exec_flag(kExecFlagsAll, flag, 0, p).matched);
  EXPECT_EQ(p.resolved_lanes(), 64u);
  const std::vector<std::string> auto_flag = {"--lanes", "auto"};
  ASSERT_TRUE(parse_exec_flag(kExecFlagsAll, auto_flag, 0, p).matched);
  EXPECT_EQ(p.resolved_lanes(), 512u);
}

TEST(ExecPolicy, AutoLanesWithoutPinMatchTheProbe) {
  ScopedEnv pin(kEnv, nullptr);
  ExecPolicy p;
  EXPECT_EQ(p.resolved_lanes(), resolve_lane_width(0));
  p.lanes = 128;
  EXPECT_EQ(p.resolved_lanes(), 128u);
}

// ---- wire encoding ----------------------------------------------------------

TEST(ExecPolicyWire, RoundTripsEveryWireField) {
  ExecPolicy p;
  p.threads = 7;
  p.kernel = SrgKernel::kPacked;
  p.lanes = 512;
  p.batch_size = 12345;
  p.progress_every = 99;  // process-local: not on the wire
  std::vector<unsigned char> buf;
  encode_exec_policy(p, buf);
  EXPECT_EQ(buf.size(), 4u + 4u + 1u + 4u + 8u);
  std::size_t pos = 0;
  const ExecPolicy d = decode_exec_policy(buf.data(), buf.size(), pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(d.threads, p.threads);
  EXPECT_EQ(d.kernel, p.kernel);
  EXPECT_EQ(d.lanes, p.lanes);
  EXPECT_EQ(d.batch_size, p.batch_size);
  EXPECT_EQ(d.progress_every, 0u);
}

TEST(ExecPolicyWire, DecodeStopsAtTheBlobEnd) {
  std::vector<unsigned char> buf;
  encode_exec_policy(ExecPolicy{}, buf);
  const std::size_t blob = buf.size();
  buf.push_back(0xab);  // trailing frame bytes belong to the caller
  std::size_t pos = 0;
  (void)decode_exec_policy(buf.data(), buf.size(), pos);
  EXPECT_EQ(pos, blob);
}

TEST(ExecPolicyWire, EveryTruncationThrows) {
  std::vector<unsigned char> buf;
  encode_exec_policy(ExecPolicy{}, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::size_t pos = 0;
    EXPECT_THROW((void)decode_exec_policy(buf.data(), cut, pos),
                 ContractViolation)
        << "cut=" << cut;
  }
}

TEST(ExecPolicyWire, FutureVersionThrows) {
  std::vector<unsigned char> buf;
  encode_exec_policy(ExecPolicy{}, buf);
  buf[0] = 3;  // LE version word -> version 3
  std::size_t pos = 0;
  EXPECT_THROW((void)decode_exec_policy(buf.data(), buf.size(), pos),
               ContractViolation);
}

// A v1 blob (which also carried an executor byte and progress_every) is
// refused outright rather than half-decoded.
TEST(ExecPolicyWire, V1BlobIsRejected) {
  // u32 version=1 | u32 threads | u8 kernel | u32 lanes | u64 batch |
  // u8 executor | u64 progress_every.
  std::vector<unsigned char> v1(4 + 4 + 1 + 4 + 8 + 1 + 8, 0);
  v1[0] = 1;
  v1[4] = 1;  // threads = 1
  std::size_t pos = 0;
  try {
    (void)decode_exec_policy(v1.data(), v1.size(), pos);
    FAIL() << "v1 blob decoded";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("version 1 not understood"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExecPolicyWire, OutOfRangeEnumBytesThrow) {
  std::vector<unsigned char> buf;
  encode_exec_policy(ExecPolicy{}, buf);
  // Layout: u32 version | u32 threads | u8 kernel | u32 lanes | u64 batch.
  const std::size_t kernel_at = 8;
  const std::size_t lanes_at = 9;
  auto corrupt = [&](std::size_t at, unsigned char v) {
    std::vector<unsigned char> c = buf;
    c[at] = v;
    std::size_t pos = 0;
    EXPECT_THROW((void)decode_exec_policy(c.data(), c.size(), pos),
                 ContractViolation)
        << "byte " << at;
  };
  corrupt(kernel_at, 200);   // kernel byte past kPacked
  corrupt(lanes_at, 3);      // lanes = 3: not 0/64/128/256/512
}

// ---- adoption differential --------------------------------------------------
//
// Every adopting struct must default to exactly the pre-refactor knobs, so
// composing ExecPolicy changed no behavior anywhere.

TEST(ExecPolicyAdoption, DefaultsMatchPreRefactorValues) {
  const ExecPolicy def;
  EXPECT_EQ(def.threads, 1u);
  EXPECT_EQ(def.kernel, SrgKernel::kAuto);
  EXPECT_EQ(def.lanes, 0u);
  EXPECT_EQ(def.batch_size, 1024u);
  EXPECT_EQ(def.progress_every, 0u);

  const FaultSweepOptions sweep;
  EXPECT_EQ(sweep.exec.threads, 1u);
  EXPECT_EQ(sweep.exec.kernel, SrgKernel::kAuto);
  EXPECT_EQ(sweep.exec.lanes, 0u);
  EXPECT_EQ(sweep.exec.batch_size, 1024u);
  EXPECT_EQ(sweep.exec.progress_every, 0u);

  const ToleranceCheckOptions check;
  EXPECT_EQ(check.exec.threads, 1u);
  EXPECT_EQ(check.exec.kernel, SrgKernel::kAuto);
  EXPECT_EQ(check.exec.lanes, 0u);
  EXPECT_EQ(check.exhaustive_budget, 20000u);
  EXPECT_EQ(check.samples, 200u);
  EXPECT_EQ(check.hillclimb_restarts, 6u);
  EXPECT_EQ(check.hillclimb_steps, 24u);

  const ServeOptions serve;
  EXPECT_EQ(serve.exec.threads, 1u);
  EXPECT_EQ(serve.exec.batch_size, 64u);  // serve's historical default
  EXPECT_EQ(serve.exec.kernel, SrgKernel::kAuto);

  const DistPoolOptions pool;
  EXPECT_EQ(pool.exec.threads, 1u);  // per-worker threads
  EXPECT_EQ(pool.exec.kernel, SrgKernel::kAuto);
  EXPECT_EQ(pool.exec.lanes, 0u);
  EXPECT_EQ(pool.exec.batch_size, 1024u);
  EXPECT_EQ(pool.workers, 1u);
  EXPECT_EQ(pool.unit_items, 0u);
  EXPECT_DOUBLE_EQ(pool.unit_timeout_sec, 300.0);

  const UnitSpec unit;
  EXPECT_EQ(unit.exec.threads, 1u);
  EXPECT_EQ(unit.exec.kernel, SrgKernel::kAuto);
  EXPECT_EQ(unit.exec.batch_size, 1024u);
}

}  // namespace
}  // namespace ftr
