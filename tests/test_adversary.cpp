#include "fault/adversary.hpp"

#include <gtest/gtest.h>

#include "analysis/fault_sweep.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "core/planner.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "adversary_oracle.hpp"
#include "lex_oracle.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"

namespace ftr {
namespace {

// A synthetic evaluator with a known worst case: diameter = sum of faults.
SetEvaluator sum_eval() {
  return [](const std::vector<Node>& faults) {
    std::uint32_t s = 0;
    for (Node f : faults) s += f;
    return s;
  };
}

FaultEvaluatorFactory sum_factory() { return batch_factory(sum_eval()); }

// The check's sampled unit: no delivery, sets from Rng::stream(seed, i).
UnitSpec sampled_unit(std::size_t f, std::uint64_t seed, std::uint64_t begin,
                      std::uint64_t end, const ExecPolicy& exec = {}) {
  UnitSpec unit;
  unit.kind = UnitKind::kSweepSampled;
  unit.f = static_cast<std::uint32_t>(f);
  unit.seed = seed;
  unit.begin = begin;
  unit.end = end;
  unit.exec = exec;
  return unit;
}

// The check's exhaustive unit is a Gray sweep unit over every rank.
TEST(Adversary, GrayUnitMatchesLexOracleOnRealRouting) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  const auto lex = lex_worst_faults(10, 2, [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  });
  UnitSpec unit;
  unit.kind = UnitKind::kSweepGray;
  unit.f = 2;
  unit.end = binomial(10, 2);
  const SweepPartial gray = execute_unit(index, unit);
  EXPECT_EQ(gray.worst_diameter, lex.worst_diameter);
  EXPECT_EQ(gray.sets, lex.evaluations);
  // The Gray witness may differ from the lexicographic one, but it must
  // attain the maximum.
  EXPECT_EQ(surviving_diameter(kr.table, gray.worst_faults),
            gray.worst_diameter);
}

TEST(Adversary, SampledUnitStaysBelowExhaustive) {
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  const auto ex = lex_worst_faults(10, 2, [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  });
  const SweepPartial sa = execute_unit(index, sampled_unit(2, 1, 0, 20));
  EXPECT_LE(sa.worst_diameter, ex.worst_diameter);
  EXPECT_EQ(sa.sets, 20u);
  // Re-evaluating the witness reproduces the reported diameter.
  EXPECT_EQ(surviving_diameter(kr.table, sa.worst_faults), sa.worst_diameter);
}

TEST(Adversary, HillclimbFindsSyntheticOptimum) {
  // The sum evaluator has a smooth landscape; hill-climbing must reach the
  // global optimum {n-2, n-1}.
  const auto r =
      hillclimb_worst_faults(12, 2, sum_factory(), /*seed=*/2, 4, 50);
  EXPECT_EQ(r.worst_diameter, 10u + 11u);
  EXPECT_EQ(sum_eval()(r.worst_faults), r.worst_diameter);
}

TEST(Adversary, HillclimbUsesSeeds) {
  // Seed directly at the optimum: zero steps needed.
  const auto r = hillclimb_worst_faults(12, 2, sum_factory(), /*seed=*/3, 1,
                                        0, {{10u, 11u}});
  EXPECT_EQ(r.worst_diameter, 21u);
  EXPECT_EQ(r.sets, 1u);
  EXPECT_EQ(r.worst_index, 0u);
  EXPECT_TRUE(r.diameter_histogram.empty());
}

TEST(Adversary, HillclimbZeroFaults) {
  const auto r = hillclimb_worst_faults(5, 0, sum_factory(), /*seed=*/4, 1, 8);
  EXPECT_EQ(r.worst_diameter, 0u);
  EXPECT_EQ(r.sets, 1u);
  EXPECT_TRUE(r.worst_faults.empty());
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
  const auto hc = hillclimb_worst_faults(10, 1, srg_evaluator_factory(index),
                                         /*seed=*/5, 4, 20);
  EXPECT_EQ(hc.worst_diameter, ex.worst_diameter);
}

// Sampled windows folded together equal the whole-space unit: the property
// the worker pool relies on.
TEST(Adversary, WindowsFoldLikeOneSearch) {
  const auto gg = torus_graph(4, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto whole_s = execute_unit(index, sampled_unit(3, 9, 0, 50));
  for (const std::uint64_t cut : {1u, 17u, 49u}) {
    SweepPartial s;
    merge_sweep_partials(s, execute_unit(index, sampled_unit(3, 9, 0, cut)));
    merge_sweep_partials(s, execute_unit(index, sampled_unit(3, 9, cut, 50)));
    EXPECT_EQ(s.worst_diameter, whole_s.worst_diameter);
    EXPECT_EQ(s.worst_index, whole_s.worst_index);
    EXPECT_EQ(s.worst_faults, whole_s.worst_faults);
    EXPECT_EQ(s.sets, whole_s.sets);
    EXPECT_EQ(s.diameter_histogram, whole_s.diameter_histogram);
  }
}

// --- batched searchers vs the serial oracles ---------------------------------

constexpr unsigned kThreads[] = {1, 2, 8};
constexpr unsigned kLaneWidths[] = {64, 128, 256, 512};

// srg_evaluator_factory's evaluator with the scratch pinned to `lanes`.
FaultEvaluatorFactory pinned_factory(const SrgIndex& index, unsigned lanes) {
  return [&index, lanes]() -> FaultEvaluator {
    auto scratch = std::make_shared<SrgScratch>(index);
    scratch->set_lane_width(lanes);
    auto res = std::make_shared<std::vector<SrgScratch::Result>>();
    return [scratch, res](std::span<const std::vector<Node>> sets,
                          std::uint32_t* d) {
      res->resize(sets.size());
      scratch->evaluate_sets(sets, res->data());
      for (std::size_t i = 0; i < sets.size(); ++i) d[i] = (*res)[i].diameter;
    };
  };
}

void expect_same(const SweepPartial& got, const SweepPartial& want,
                 const std::string& what) {
  EXPECT_EQ(got.sets, want.sets) << what;
  EXPECT_EQ(got.diameter_histogram, want.diameter_histogram) << what;
  EXPECT_EQ(got.disconnected, want.disconnected) << what;
  EXPECT_EQ(got.have_worst, want.have_worst) << what;
  EXPECT_EQ(got.worst_diameter, want.worst_diameter) << what;
  EXPECT_EQ(got.worst_index, want.worst_index) << what;
  EXPECT_EQ(got.worst_faults, want.worst_faults) << what;
}

SweepPartial fold(const SweepPartial& a, const SweepPartial& b) {
  SweepPartial acc;
  merge_sweep_partials(acc, a);
  merge_sweep_partials(acc, b);
  return acc;
}

struct AdvTable {
  std::string name;
  std::shared_ptr<const SrgIndex> index;
  std::size_t f;
};

AdvTable planned_table(const std::string& name, const GeneratedGraph& gg,
                       std::size_t f) {
  Rng rng(42);
  const auto planned =
      build_planned_routing(gg.graph, gg.known_connectivity, rng);
  return {name + " (" + construction_name(planned.plan.construction) + ")",
          std::make_shared<const SrgIndex>(planned.table), f};
}

// The issue's certify table (serve's torus(8,8)), hypercube(5) on both
// sides of disconnection, CCC(4), a multirouting and a kernel table.
std::vector<AdvTable> differential_tables() {
  std::vector<AdvTable> tables;
  tables.push_back(planned_table("torus(8,8)", torus_graph(8, 8), 3));
  tables.push_back(planned_table("hypercube(5)", hypercube(5), 4));
  tables.push_back(planned_table("hypercube(5)", hypercube(5), 5));
  tables.push_back(planned_table("CCC(4)", cube_connected_cycles(4), 2));
  const auto t5 = torus_graph(5, 5);
  tables.push_back({"full multirouting torus(5,5)",
                    std::make_shared<const SrgIndex>(
                        build_full_multirouting(t5.graph, 3)),
                    3});
  const auto t6 = torus_graph(6, 6);
  tables.push_back({"kernel torus(6,6)",
                    std::make_shared<const SrgIndex>(
                        build_kernel_routing(t6.graph, 3).table),
                    3});
  return tables;
}

// Every partial field of the check's sampled unit and of the climb equals
// the serial oracle's at every thread count: the sampled unit on whole and
// split windows across batch sizes, the climb at every pinned lane width,
// with the library's own factory agreeing too.
TEST(Adversary, SampledUnitAndClimbMatchSerialOracleOnRealTables) {
  bool saw_stop = false;
  for (const AdvTable& t : differential_tables()) {
    const SrgIndex& index = *t.index;
    const std::size_t n = index.num_nodes();
    const SetEvaluator serial = srg_set_evaluator(index);
    // Five climb seeds at most, for six restarts.
    std::vector<std::vector<Node>> seeds;
    for (std::size_t k = 0; k < 5; ++k) {
      std::vector<Node> s;
      for (std::size_t i = 0; i < t.f; ++i) {
        s.push_back(static_cast<Node>((k * 7 + i * 3) % n));
      }
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      if (s.size() == t.f) seeds.push_back(std::move(s));
    }
    const auto want_s = sampled_oracle(n, t.f, serial, 11, 0, 200);
    const auto want_s_lo = sampled_oracle(n, t.f, serial, 11, 0, 77);
    const auto want_s_hi = sampled_oracle(n, t.f, serial, 11, 77, 200);
    const auto want_c = hillclimb_oracle(n, t.f, serial, 12, 6, 24, seeds);
    saw_stop = saw_stop || want_c.worst_diameter == kUnreachable;
    expect_same(fold(want_s_lo, want_s_hi), want_s, t.name + " oracle split");

    for (const unsigned threads : kThreads) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{96},
                                      std::size_t{1024}}) {
        const ExecPolicy exec{.threads = threads, .batch_size = batch};
        const std::string what = t.name + " f=" + std::to_string(t.f) +
                                 " threads=" + std::to_string(threads) +
                                 " batch=" + std::to_string(batch);
        expect_same(execute_unit(index, sampled_unit(t.f, 11, 0, 200, exec)),
                    want_s, what + " sampled");
        expect_same(
            execute_unit(index, sampled_unit(t.f, 11, 77, 200, exec)),
            want_s_hi, what + " sampled [77, 200)");
      }
      const ExecPolicy exec{.threads = threads};
      for (const unsigned lanes : kLaneWidths) {
        const std::string what = t.name + " f=" + std::to_string(t.f) +
                                 " threads=" + std::to_string(threads) +
                                 " lanes=" + std::to_string(lanes);
        expect_same(hillclimb_worst_faults(n, t.f,
                                           pinned_factory(index, lanes), 12,
                                           6, 24, seeds, exec),
                    want_c, what + " climb");
      }
      expect_same(hillclimb_worst_faults(n, t.f, srg_evaluator_factory(index),
                                         12, 6, 24, seeds, exec),
                  want_c, t.name + " climb, library factory");
    }
  }
  // hypercube(5) at f = 5 disconnects: the stop path ran.
  EXPECT_TRUE(saw_stop);
}

// The toy landscapes below each pin one path of the lockstep climber
// against the oracle at every thread count.
void expect_climb_matches(std::size_t n, std::size_t f,
                          const SetEvaluator& eval, std::uint64_t seed,
                          std::uint64_t restarts, std::size_t max_steps,
                          const std::vector<std::vector<Node>>& seeds,
                          const std::string& name) {
  const auto want = hillclimb_oracle(n, f, eval, seed, restarts, max_steps, seeds);
  for (const unsigned threads : kThreads) {
    expect_same(hillclimb_worst_faults(n, f, batch_factory(eval), seed,
                                       restarts, max_steps, seeds,
                                       ExecPolicy{.threads = threads}),
                want, name + " threads=" + std::to_string(threads));
  }
}

TEST(Adversary, LockstepClimbImprovesInALaterSlot) {
  // From {0, 11}, only swapping out 0 improves: whenever the step scans
  // 11's slot first, the improvement lands in the second slot and the Rng
  // must resume right after that slot's draw.
  const SetEvaluator eval = [](const std::vector<Node>& faults) {
    std::uint32_t s = 0;
    for (Node v : faults) s += v == 11 ? 100 : v;
    return s;
  };
  const std::vector<std::vector<Node>> seeds(16, {0, 11});
  bool later_slot = false;
  for (std::uint64_t i = 0; i < seeds.size(); ++i) {
    later_slot = later_slot || Rng::stream(21, i).permutation(2)[0] == 1;
  }
  ASSERT_TRUE(later_slot);
  expect_climb_matches(12, 2, eval, 21, 16, 5, seeds, "later slot");
}

TEST(Adversary, LockstepClimbStopsAtMaxSteps) {
  // The sum landscape always has an improving swap until {37, 38, 39}, so
  // two steps end every climb short of it.
  const auto want = hillclimb_oracle(40, 3, sum_eval(), 22, 5, 2);
  EXPECT_LT(want.worst_diameter, 37u + 38u + 39u);
  expect_climb_matches(40, 3, sum_eval(), 22, 5, 2, {}, "max_steps=2");
  expect_climb_matches(40, 3, sum_eval(), 22, 5, 0, {}, "max_steps=0");
  const auto none = hillclimb_worst_faults(40, 3, sum_factory(), 22, 5, 0);
  EXPECT_EQ(none.sets, 5u);  // the starts alone
}

TEST(Adversary, LockstepClimbStopsAtTheFirstDisconnectedRestart) {
  // A flat landscape, disconnected only at {14, 15}: restarts 0 and 1 are
  // one swap away from nothing better, restart 2 reaches it in one swap,
  // so the search stops there and restarts 3..7 are never counted, at
  // every thread count: one chunk, a stop inside the first of two, and a
  // stop in the third of eight.
  const SetEvaluator eval = [](const std::vector<Node>& faults) {
    const bool a = std::find(faults.begin(), faults.end(), 14) != faults.end();
    const bool b = std::find(faults.begin(), faults.end(), 15) != faults.end();
    return a && b ? kUnreachable : 1u;
  };
  const std::vector<std::vector<Node>> seeds = {{0, 1}, {2, 3}, {3, 14}};
  const auto want = hillclimb_oracle(16, 2, eval, 23, 8, 6, seeds);
  EXPECT_EQ(want.worst_diameter, kUnreachable);
  EXPECT_EQ(want.worst_faults, (std::vector<Node>{15, 14}));
  EXPECT_EQ(want.worst_index, 2u);
  const auto first_two = hillclimb_oracle(16, 2, eval, 23, 2, 6, seeds);
  EXPECT_NE(first_two.worst_diameter, kUnreachable);
  EXPECT_GT(want.sets, first_two.sets);
  expect_climb_matches(16, 2, eval, 23, 8, 6, seeds, "stop at restart 2");
  // A start that is already disconnected still scans one step, counted.
  const std::vector<std::vector<Node>> dead_start = {{0, 1}, {14, 15}};
  expect_climb_matches(16, 2, eval, 23, 8, 6, dead_start, "dead start");
}

TEST(Adversary, LockstepClimbWithMoreSeedsThanRestarts) {
  std::vector<std::vector<Node>> seeds;
  for (Node v = 0; v < 10; ++v) seeds.push_back({v, Node(v + 10)});
  expect_climb_matches(30, 2, sum_eval(), 24, 4, 8, seeds, "4 restarts");
  expect_climb_matches(30, 2, sum_eval(), 24, 7, 8, seeds, "7 restarts");
  expect_climb_matches(30, 2, sum_eval(), 24, 13, 8, seeds, "13 restarts");
}

// One executor runs both unit kinds the check plans.
TEST(Adversary, ExecuteUnitRunsEveryCheckUnitKind) {
  const auto gg = cycle_graph(6);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  UnitSpec unit;
  unit.kind = UnitKind::kSweepGray;
  unit.f = 1;
  unit.end = 6;
  EXPECT_EQ(execute_unit(index, unit).sets, 6u);
  unit.kind = UnitKind::kSweepSampled;
  unit.end = 9;
  EXPECT_EQ(execute_unit(index, unit).sets, 9u);
}

}  // namespace
}  // namespace ftr
