#include "fault/tolerance_check.hpp"

#include <gtest/gtest.h>

#include "analysis/fault_sweep.hpp"
#include "common/combinatorics.hpp"
#include "core/planner.hpp"
#include "fault/adversary.hpp"
#include "fault/fault_gen.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/serialization.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

TEST(ToleranceCheck, ExhaustiveWhenBudgetAllows) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  Rng rng(1);
  const auto report = check_tolerance(kr.table, 1, 4, rng);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.fault_sets_checked, 10u);
  EXPECT_TRUE(report.holds);
  EXPECT_LE(report.worst_diameter, 4u);
}

TEST(ToleranceCheck, AdversarialWhenBudgetExceeded) {
  const auto gg = cycle_graph(12);
  const auto kr = build_kernel_routing(gg.graph, 1);
  Rng rng(2);
  ToleranceCheckOptions opts;
  opts.exhaustive_budget = 2;  // force the sampled path
  opts.samples = 30;
  const auto report = check_tolerance(kr.table, 1, 4, rng, opts);
  EXPECT_FALSE(report.exhaustive);
  EXPECT_TRUE(report.holds);
}

TEST(ToleranceCheck, DetectsViolationOfFalseClaim) {
  // Claim diameter 1 for a kernel routing: certainly false under faults.
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  Rng rng(3);
  const auto report = check_tolerance(kr.table, 1, 1, rng);
  EXPECT_FALSE(report.holds);
  EXPECT_GT(report.worst_diameter, 1u);
  // The worst fault set is a genuine witness.
  EXPECT_EQ(surviving_diameter(kr.table, report.worst_faults),
            report.worst_diameter);
}

TEST(ToleranceCheck, Multirouting) {
  const auto gg = petersen_graph();
  const auto table = build_full_multirouting(gg.graph, 2);
  Rng rng(4);
  const auto report = check_tolerance(table, 2, 1, rng);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.holds);
  EXPECT_EQ(report.worst_diameter, 1u);
}

TEST(ToleranceCheck, SummaryMentionsVerdict) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  Rng rng(5);
  const auto ok = check_tolerance(kr.table, 1, 4, rng);
  EXPECT_NE(ok.summary().find("HOLDS"), std::string::npos);
  const auto bad = check_tolerance(kr.table, 1, 0, rng);
  EXPECT_NE(bad.summary().find("VIOLATED"), std::string::npos);
}

TEST(ToleranceCheck, ZeroFaultCase) {
  const auto gg = cycle_graph(8);
  const auto kr = build_kernel_routing(gg.graph, 1);
  Rng rng(6);
  const auto report = check_tolerance(kr.table, 0, 4, rng);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.fault_sets_checked, 1u);
}

// The decision tree hands one whole-space unit to the runner: a kSweepGray
// unit when C(n, f) fits the budget, otherwise a kSweepSampled unit without
// delivery, after which the hill-climb runs in process.
TEST(ToleranceCheck, RunnerReceivesThePlannedUnits) {
  const auto gg = cycle_graph(12);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  for (const bool exhaustive : {true, false}) {
    ToleranceCheckOptions opts;
    if (!exhaustive) {
      opts.exhaustive_budget = 1;
      opts.samples = 30;
      opts.hillclimb_restarts = 3;
      opts.seeds = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
    }
    const auto want = check_tolerance(index, 2, 4, 99, opts);
    std::vector<UnitSpec> seen;
    opts.runner = [&](const UnitSpec& unit) {
      seen.push_back(unit);
      return execute_unit(index, unit);
    };
    const auto got = check_tolerance(index, 2, 4, 99, opts);
    EXPECT_EQ(got.summary(), want.summary());
    EXPECT_EQ(got.worst_faults, want.worst_faults);
    EXPECT_EQ(got.exhaustive, exhaustive);
    if (exhaustive) {
      ASSERT_EQ(seen.size(), 1u);
      EXPECT_EQ(seen[0].kind, UnitKind::kSweepGray);
      EXPECT_EQ(seen[0].end, binomial(12, 2));
    } else {
      ASSERT_EQ(seen.size(), 1u);
      EXPECT_EQ(seen[0].kind, UnitKind::kSweepSampled);
      EXPECT_EQ(seen[0].end, 30u);
      EXPECT_EQ(seen[0].delivery_pairs, 0u);
      EXPECT_EQ(seen[0].seed, Rng::stream(99, 1)());
      // Informed seeds extend the climb to 4 restarts.
      const auto climb = hillclimb_worst_faults(
          12, 2, srg_evaluator_factory(index), Rng::stream(99, 2)(), 4,
          opts.hillclimb_steps, opts.seeds);
      EXPECT_EQ(got.fault_sets_checked, 30u + climb.sets);
    }
    EXPECT_EQ(seen[0].begin, 0u);
  }
}

// Restart ids and sample ids are different index spaces, so the climb's
// witness replaces the samples' only on a strictly greater diameter: on a
// tie the samples' witness stays, even at a higher index than the climb's
// winning restart (an index-space merge would hand the tie to the climb).
TEST(ToleranceCheck, ClimbTyingTheSamplesKeepsTheSamplesWitness) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  ToleranceCheckOptions opts;
  opts.exhaustive_budget = 0;
  opts.samples = 40;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 200 && !found; ++seed) {
    UnitSpec unit;
    unit.kind = UnitKind::kSweepSampled;
    unit.f = 2;
    unit.seed = Rng::stream(seed, 1)();
    unit.end = opts.samples;
    const SweepPartial samples = execute_unit(index, unit);
    const SweepPartial climb = hillclimb_worst_faults(
        25, 2, srg_evaluator_factory(index), Rng::stream(seed, 2)(),
        opts.hillclimb_restarts, opts.hillclimb_steps);
    if (climb.worst_diameter != samples.worst_diameter ||
        samples.worst_index <= climb.worst_index ||
        samples.worst_faults == climb.worst_faults) {
      continue;
    }
    found = true;
    const auto report = check_tolerance(index, 2, 6, seed, opts);
    EXPECT_EQ(report.worst_diameter, samples.worst_diameter);
    EXPECT_EQ(report.worst_faults, samples.worst_faults) << "seed " << seed;
    EXPECT_EQ(report.fault_sets_checked, samples.sets + climb.sets);
  }
  ASSERT_TRUE(found);
}

TEST(ToleranceCheck, RouteLoadSeedIsTheTopFOfTheRanking) {
  const std::vector<Node> ranking = {4, 2, 0, 1, 3};
  const auto seeded = with_route_load_seeds(ranking, 2, {});
  EXPECT_EQ(seeded.seeds, (std::vector<std::vector<Node>>{{4, 2}}));
  EXPECT_TRUE(with_route_load_seeds(ranking, 0, {}).seeds.empty());
  EXPECT_TRUE(with_route_load_seeds(ranking, 6, {}).seeds.empty());
  ToleranceCheckOptions own;
  own.seeds = {{1, 3}};
  EXPECT_EQ(with_route_load_seeds(ranking, 2, own).seeds, own.seeds);
}

// check, serve and build --certify run the index form on a shared index
// with the hill-climber seeded from a ranking they already hold. On the
// adversarial path, where that seed matters, the report must equal the
// table-level check's (which ranks the table itself), for any thread
// count.
TEST(ToleranceCheck, SnapshotRankedCheckMatchesTableCheck) {
  struct Case {
    GeneratedGraph (*make)();
    std::uint32_t f;
  };
  for (const Case c : {Case{[] { return torus_graph(8, 8); }, 3},
                       Case{[] { return hypercube(5); }, 4}}) {
    const auto gg = c.make();
    Rng plan_rng(42);
    auto planned = build_planned_routing(gg.graph, std::nullopt, plan_rng);
    const RoutingTable table = planned.table;
    const std::uint32_t claimed = planned.plan.guaranteed_diameter;
    const TableSnapshot snap = make_table_snapshot(
        gg.graph, std::move(planned.table), planned.plan);
    EXPECT_EQ(snap.route_load_ranking, nodes_by_route_load(table));
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(gg.name + " f=" + std::to_string(c.f) +
                   " threads=" + std::to_string(threads));
      ToleranceCheckOptions opts;
      opts.exec.threads = threads;
      Rng want_rng(11);
      const auto want = check_tolerance(table, c.f, claimed, want_rng, opts);
      ASSERT_FALSE(want.exhaustive);
      Rng rng(11);
      const auto got = check_tolerance(
          *snap.index, c.f, claimed, rng(),
          with_route_load_seeds(snap.route_load_ranking, c.f, opts));
      EXPECT_EQ(got.summary(), want.summary());
      EXPECT_EQ(got.worst_faults, want.worst_faults);
    }
  }
}

// Exhaustive checks beyond f = 3 run the Gray scan. Its verdict, worst
// diameter, and set count must match the lexicographic oracle over one-shot
// surviving_diameter, for every thread count; its witness may be
// a different worst set, but must re-evaluate to the reported diameter.
TEST(ToleranceCheck, ExhaustiveMatchesLexOracleBeyondThreeFaults) {
  struct Case {
    std::uint32_t rows, cols, f;
  };
  for (const Case c : {Case{5, 5, 4}, Case{4, 5, 5}}) {
    const auto gg = torus_graph(c.rows, c.cols);
    const auto kr = build_kernel_routing(gg.graph, 3);
    const std::size_t n = kr.table.num_nodes();
    const auto oracle = lex_worst_faults(n, c.f, [&](const std::vector<Node>& f) {
      return surviving_diameter(kr.table, f);
    });
    const std::uint32_t claimed = 6;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(gg.name + " f=" + std::to_string(c.f) +
                   " threads=" + std::to_string(threads));
      ToleranceCheckOptions opts;
      opts.exec.threads = threads;
      Rng rng(1);
      const auto report = check_tolerance(kr.table, c.f, claimed, rng, opts);
      ASSERT_TRUE(report.exhaustive);
      EXPECT_EQ(report.fault_sets_checked, oracle.evaluations);
      EXPECT_EQ(report.worst_diameter, oracle.worst_diameter);
      EXPECT_EQ(report.holds, oracle.worst_diameter <= claimed);
      EXPECT_EQ(surviving_diameter(kr.table, report.worst_faults),
                report.worst_diameter);
    }
  }
}

}  // namespace
}  // namespace ftr
