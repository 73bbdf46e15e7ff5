#include "fault/tolerance_check.hpp"

#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
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

TEST(ToleranceCheck, MultiRouteOverload) {
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

// The decision tree plans whole-space units and folds whatever the runner
// returns: one kAdvGray unit when C(n, f) fits the budget, otherwise a
// kAdvSampled unit plus a kAdvClimb unit.
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
      return execute_adv_unit(index, unit);
    };
    const auto got = check_tolerance(index, 2, 4, 99, opts);
    EXPECT_EQ(got.summary(), want.summary());
    EXPECT_EQ(got.worst_faults, want.worst_faults);
    EXPECT_EQ(got.exhaustive, exhaustive);
    if (exhaustive) {
      ASSERT_EQ(seen.size(), 1u);
      EXPECT_EQ(seen[0].kind, UnitKind::kAdvGray);
      EXPECT_EQ(seen[0].end, binomial(12, 2));
    } else {
      ASSERT_EQ(seen.size(), 2u);
      EXPECT_EQ(seen[0].kind, UnitKind::kAdvSampled);
      EXPECT_EQ(seen[0].end, 30u);
      EXPECT_EQ(seen[1].kind, UnitKind::kAdvClimb);
      EXPECT_EQ(seen[1].end, 4u);  // informed seeds extend the restarts
      EXPECT_EQ(seen[1].climb_seeds, opts.seeds);
    }
    for (const UnitSpec& u : seen) EXPECT_EQ(u.begin, 0u);
  }
}

// Exhaustive checks beyond f = 3 run the Gray scan. Its verdict, worst
// diameter, and set count must match the lexicographic oracle over one-shot
// surviving_diameter, for every kernel and thread count; its witness may be
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
    for (const SrgKernel kernel :
         {SrgKernel::kAuto, SrgKernel::kBitset, SrgKernel::kScalar}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(gg.name + " f=" + std::to_string(c.f) + " kernel=" +
                     srg_kernel_name(kernel) +
                     " threads=" + std::to_string(threads));
        ToleranceCheckOptions opts;
        opts.exec.kernel = kernel;
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
}

}  // namespace
}  // namespace ftr
