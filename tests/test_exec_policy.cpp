#include "common/exec_policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "cli/cli.hpp"
#include "cli/cli_support.hpp"
#include "common/combinatorics.hpp"
#include "common/parallel.hpp"
#include "dist/coordinator.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"
#include "serve/request_router.hpp"

namespace ftr {
namespace {

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

TEST(ExecPolicy, ResolvedBatchIsClampedToOneThrough2To20) {
  constexpr std::size_t kCap = std::size_t{1} << 20;
  ExecPolicy p;
  const std::pair<std::size_t, std::size_t> cases[] = {
      {0, 1},       {1, 1},       {7, 7},
      {1024, 1024}, {kCap, kCap}, {kCap + 1, kCap},
      {std::size_t{1} << 62, kCap}, {~std::size_t{0}, kCap},
  };
  for (const auto& [batch, want] : cases) {
    p.batch_size = batch;
    EXPECT_EQ(p.resolved_batch(), want) << "batch " << batch;
  }
}

// A batch whose window (batch x threads) used to wrap to zero must sweep the
// same sets as a modest batch instead of spinning forever.
TEST(ExecPolicy, HugeBatchSweepsLikeAModestOne) {
  const auto gg = torus_graph(5, 5);
  const TableSnapshot snap =
      make_table_snapshot(gg.graph, build_kernel_routing(gg.graph, 2).table);
  const SrgIndex& index = *snap.index;
  FaultSweepOptions modest;
  modest.exec.threads = 4;
  modest.exec.batch_size = 1024;
  modest.delivery_pairs = 2;
  FaultSweepOptions huge = modest;
  huge.exec.batch_size = std::size_t{1} << 62;

  const std::size_t n = gg.graph.num_nodes();
  for (const UnitKind kind : {UnitKind::kSweepSampled, UnitKind::kSweepGray}) {
    const std::uint64_t count =
        kind == UnitKind::kSweepGray ? checked_binomial(n, 2) : 40;
    const SweepPartial want =
        execute_unit(index, sweep_unit(kind, 2, count, modest));
    const SweepPartial got =
        execute_unit(index, sweep_unit(kind, 2, count, huge));
    EXPECT_EQ(got.sets, count) << unit_kind_name(kind);
    EXPECT_EQ(got.sets, want.sets);
    EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
    EXPECT_EQ(got.disconnected, want.disconnected);
    EXPECT_EQ(got.worst_diameter, want.worst_diameter);
    EXPECT_EQ(got.worst_index, want.worst_index);
    EXPECT_EQ(got.worst_faults, want.worst_faults);
    EXPECT_EQ(got.pairs_sampled, want.pairs_sampled);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.route_hops_total, want.route_hops_total);
  }

  // The streamed feed cuts its chunks at resolved_batch() sets.
  const std::vector<std::vector<Node>> sets = {{0, 7}, {3, 11}, {1, 2, 3}};
  ExplicitListSource a(sets);
  ExplicitListSource b(sets);
  const FaultSweepSummary want =
      sweep_fault_source(snap.table, index, a, modest);
  const FaultSweepSummary got = sweep_fault_source(snap.table, index, b, huge);
  EXPECT_EQ(got.total_sets, sets.size());
  EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
  EXPECT_EQ(got.delivered, want.delivered);
}

// ---- the CLI rows -----------------------------------------------------------
//
// The execution flags are ordinary verb flags: each verb lists the shared
// rows it accepts, and exec_policy_args reads them over the verb's library
// default.

cli::VerbSpec exec_spec(std::vector<cli::VerbFlag> flags) {
  return {.name = "probe",
          .positional = "",
          .summary = "exec flag probe",
          .flags = std::move(flags),
          .min_positional = 0,
          .max_positional = 0};
}

ExecPolicy parse_exec(const std::vector<std::string>& args,
                      ExecPolicy defaults = {}) {
  const cli::VerbSpec spec =
      exec_spec({cli::kThreadsFlag, cli::kBatchFlag, cli::kProgressFlag});
  return cli::exec_policy_args(cli::parse_verb_args(spec, args), defaults);
}

TEST(ExecPolicyFlags, ParseFillsEveryField) {
  const ExecPolicy p = parse_exec(
      {"--threads", "4", "--batch", "9", "--progress-every", "5"});
  EXPECT_EQ(p.threads, 4u);
  EXPECT_EQ(p.batch_size, 9u);
  EXPECT_EQ(p.progress_every, 5u);
}

TEST(ExecPolicyFlags, AbsentFlagsKeepTheVerbsDefault) {
  const ExecPolicy p = parse_exec({"--threads", "2"}, ServeOptions{}.exec);
  EXPECT_EQ(p.threads, 2u);
  EXPECT_EQ(p.batch_size, 64u);  // ServeOptions' default, the only copy
  EXPECT_EQ(p.progress_every, 0u);
}

TEST(ExecPolicyFlags, AVerbRefusesTheRowsItDoesNotList) {
  // check lists --threads only.
  const cli::VerbSpec check = exec_spec({cli::kThreadsFlag});
  EXPECT_THROW(cli::parse_verb_args(check, {"--batch", "9"}), cli::UsageError);
  EXPECT_THROW(cli::parse_verb_args(check, {"--progress-every", "1"}),
               cli::UsageError);
  EXPECT_EQ(cli::exec_policy_args(
                cli::parse_verb_args(check, {"--threads", "3"}), {})
                .threads,
            3u);
  // The shipped verb: exit 2 (usage error) before any file is read.
  EXPECT_EQ(cli::run_cli({"check", "--batch", "9"}), 2);
}

TEST(ExecPolicyFlags, MissingBadAndOversizedValuesAreUsageErrors) {
  EXPECT_THROW(parse_exec({"--threads"}), cli::UsageError);
  EXPECT_THROW(parse_exec({"--batch"}), cli::UsageError);
  EXPECT_THROW(parse_exec({"--threads", "12frog"}), cli::UsageError);
  EXPECT_THROW(parse_exec({"--batch", "-1"}), cli::UsageError);
  EXPECT_THROW(parse_exec({"--progress-every", "x"}), cli::UsageError);
  EXPECT_THROW(parse_exec({"--threads", "4294967296"}), cli::UsageError);
  EXPECT_EQ(parse_exec({"--threads", "4294967295"}).threads, 4294967295u);
}

TEST(ExecPolicyFlags, RepeatedFlagTakesTheFirstValue) {
  EXPECT_EQ(parse_exec({"--threads", "2", "--threads", "5"}).threads, 2u);
  EXPECT_EQ(parse_exec({"--batch", "7", "--batch", "bogus"}).batch_size, 7u);
}

// ---- adoption differential --------------------------------------------------
//
// Every adopting struct must default to exactly the pre-refactor knobs, so
// composing ExecPolicy changed no behavior anywhere.

TEST(ExecPolicyAdoption, DefaultsMatchPreRefactorValues) {
  const ExecPolicy def;
  EXPECT_EQ(def.threads, 1u);
  EXPECT_EQ(def.batch_size, 1024u);
  EXPECT_EQ(def.progress_every, 0u);

  const FaultSweepOptions sweep;
  EXPECT_EQ(sweep.exec.threads, 1u);
  EXPECT_EQ(sweep.exec.batch_size, 1024u);
  EXPECT_EQ(sweep.exec.progress_every, 0u);

  const ToleranceCheckOptions check;
  EXPECT_EQ(check.exec.threads, 1u);
  EXPECT_EQ(check.exhaustive_budget, 50000u);
  EXPECT_EQ(check.samples, 200u);
  EXPECT_EQ(check.hillclimb_restarts, 6u);
  EXPECT_EQ(check.hillclimb_steps, 24u);

  const ServeOptions serve;
  EXPECT_EQ(serve.exec.threads, 1u);
  EXPECT_EQ(serve.exec.batch_size, 64u);  // serve's historical default

  const DistPoolOptions pool;
  EXPECT_EQ(pool.exec.threads, 1u);  // per-worker threads
  EXPECT_EQ(pool.exec.batch_size, 1024u);
  EXPECT_EQ(pool.workers, 1u);
  EXPECT_EQ(pool.unit_items, 0u);
  EXPECT_DOUBLE_EQ(pool.unit_timeout_sec, 300.0);

  const UnitSpec unit;
  EXPECT_EQ(unit.exec.threads, 1u);
  EXPECT_EQ(unit.exec.batch_size, 1024u);
}

}  // namespace
}  // namespace ftr
