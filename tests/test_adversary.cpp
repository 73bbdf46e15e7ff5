#include "fault/adversary.hpp"

#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "lex_oracle.hpp"
#include "routing/kernel.hpp"
#include "routing/route_table.hpp"

namespace ftr {
namespace {

// A synthetic evaluator with a known worst case: diameter = sum of faults.
FaultEvaluator sum_eval() {
  return [](const std::vector<Node>& faults) {
    std::uint32_t s = 0;
    for (Node f : faults) s += f;
    return s;
  };
}

FaultEvaluatorFactory sum_factory() {
  return [] { return sum_eval(); };
}

TEST(Adversary, GrayMatchesLexOracleOnRealRouting) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  const auto lex = lex_worst_faults(10, 2, [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  });
  const auto gray = exhaustive_worst_faults_gray(index, 2, 0, binomial(10, 2));
  EXPECT_EQ(gray.d, lex.worst_diameter);
  EXPECT_EQ(gray.evaluations, lex.evaluations);
  EXPECT_FALSE(gray.stopped);
  // The Gray witness may differ from the lexicographic one, but it must
  // attain the maximum.
  EXPECT_EQ(surviving_diameter(kr.table, gray.faults), gray.d);
}

TEST(Adversary, SampledStaysBelowExhaustive) {
  const auto ex = lex_worst_faults(8, 2, sum_eval());
  const auto sa = sampled_worst_faults(8, 2, sum_factory(), /*seed=*/1, 0, 20);
  EXPECT_LE(sa.d, ex.worst_diameter);
  EXPECT_EQ(sa.evaluations, 20u);
  // Re-evaluating the witness reproduces the reported diameter.
  EXPECT_EQ(sum_eval()(sa.faults), sa.d);
}

TEST(Adversary, HillclimbFindsSyntheticOptimum) {
  // The sum evaluator has a smooth landscape; hill-climbing must reach the
  // global optimum {n-2, n-1}.
  const auto r =
      hillclimb_worst_faults(12, 2, sum_factory(), /*seed=*/2, 0, 4, 50);
  EXPECT_EQ(r.d, 10u + 11u);
  EXPECT_EQ(sum_eval()(r.faults), r.d);
}

TEST(Adversary, HillclimbUsesSeeds) {
  // Seed directly at the optimum: zero steps needed.
  const auto r = hillclimb_worst_faults(12, 2, sum_factory(), /*seed=*/3, 0,
                                        1, 0, {{10u, 11u}});
  EXPECT_EQ(r.d, 21u);
  EXPECT_EQ(r.evaluations, 1u);
}

TEST(Adversary, HillclimbZeroFaults) {
  const auto r = hillclimb_worst_faults(5, 0, sum_factory(), /*seed=*/4, 0, 1,
                                        8);
  EXPECT_EQ(r.d, 0u);
  EXPECT_EQ(r.evaluations, 1u);
  EXPECT_TRUE(r.faults.empty());
}

TEST(Adversary, HillclimbMatchesExhaustiveOnRealRouting) {
  // On a small kernel routing the climbing adversary should reach the
  // exhaustive ground truth.
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  const auto ex = lex_worst_faults(10, 1, [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  });
  const auto hc = hillclimb_worst_faults(
      10, 1, srg_evaluator_factory(index, SrgKernel::kAuto), /*seed=*/5, 0, 4,
      20);
  EXPECT_EQ(hc.d, ex.worst_diameter);
}

// Windows folded in order equal the whole-space search: the property the
// check decision tree and the worker pool both rely on.
TEST(Adversary, WindowsFoldLikeOneSearch) {
  const auto whole_s = sampled_worst_faults(20, 3, sum_factory(), 9, 0, 50);
  const auto whole_c = hillclimb_worst_faults(20, 3, sum_factory(), 9, 0, 6, 4);
  for (const std::uint64_t cut : {1u, 17u, 49u}) {
    AdvPartial s;
    merge_adversary_partials(s, sampled_worst_faults(20, 3, sum_factory(), 9,
                                                     0, cut));
    merge_adversary_partials(s, sampled_worst_faults(20, 3, sum_factory(), 9,
                                                     cut, 50));
    EXPECT_EQ(s.d, whole_s.d);
    EXPECT_EQ(s.faults, whole_s.faults);
    EXPECT_EQ(s.evaluations, whole_s.evaluations);
  }
  for (const std::uint64_t cut : {1u, 3u, 5u}) {
    AdvPartial c;
    merge_adversary_partials(c, hillclimb_worst_faults(20, 3, sum_factory(), 9,
                                                       0, cut, 4));
    merge_adversary_partials(c, hillclimb_worst_faults(20, 3, sum_factory(), 9,
                                                       cut, 6, 4));
    EXPECT_EQ(c.d, whole_c.d);
    EXPECT_EQ(c.faults, whole_c.faults);
    EXPECT_EQ(c.evaluations, whole_c.evaluations);
  }
}

TEST(Adversary, ExecuteAdvUnitRejectsSweepUnits) {
  const auto gg = cycle_graph(6);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  UnitSpec unit;
  unit.kind = UnitKind::kSweepGray;
  unit.f = 1;
  unit.end = 6;
  EXPECT_THROW(execute_adv_unit(index, unit), ContractViolation);
  unit.kind = UnitKind::kAdvGray;
  EXPECT_EQ(execute_adv_unit(index, unit).evaluations, 6u);
}

}  // namespace
}  // namespace ftr
