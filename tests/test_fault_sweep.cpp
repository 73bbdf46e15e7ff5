// End-to-end determinism of the parallel fault-sweep layer: every sweep
// result — tolerance verdicts, diameter histograms, the adversary's
// best-found fault set, recovery metrics, delivery stats — must be
// bit-identical for threads in {1, 2, 8}, and the diameter aggregates must
// equal a serial fold of the pre-refactor one-shot path (fault/surviving.cpp)
// on kernel, circular, and tri-circular tables.
#include "analysis/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/cpu_features.hpp"
#include "core/planner.hpp"
#include "fault/fault_gen.hpp"
#include "fault/surviving.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"
#include "sim/recovery.hpp"
#include "delivery_oracle.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct NamedTable {
  std::string name;
  Graph g;
  RoutingTable table;
  std::uint32_t t;
};

// Kernel, circular, and tri-circular tables — the three construction
// families the determinism satellite calls out.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back({"kernel/torus", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 3});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"circular/torus", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 3});
  }
  {
    const auto gg = cycle_graph(48);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tricircular/cycle", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

void expect_same_summary(const FaultSweepSummary& a,
                         const FaultSweepSummary& b) {
  EXPECT_EQ(a.total_sets, b.total_sets);
  EXPECT_EQ(a.diameter_histogram, b.diameter_histogram);
  EXPECT_EQ(a.disconnected, b.disconnected);
  EXPECT_EQ(a.worst_diameter, b.worst_diameter);
  EXPECT_EQ(a.worst_index, b.worst_index);
  EXPECT_EQ(a.worst_faults, b.worst_faults);
  EXPECT_EQ(a.pairs_sampled, b.pairs_sampled);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_route_hops, b.avg_route_hops);
  EXPECT_EQ(a.max_route_hops, b.max_route_hops);
  EXPECT_EQ(a.max_edge_hops, b.max_edge_hops);
}

// The diameter aggregates of `sets`, folded serially from the pre-refactor
// one-shot path (fault/surviving.cpp): histogram, disconnected count, and
// the first set attaining the worst diameter.
FaultSweepSummary one_shot_fold(const RoutingTable& table,
                                const std::vector<std::vector<Node>>& sets) {
  FaultSweepSummary out;
  out.total_sets = sets.size();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::uint32_t d = surviving_diameter(table, sets[i]);
    if (d == kUnreachable) {
      ++out.disconnected;
    } else {
      if (d >= out.diameter_histogram.size()) {
        out.diameter_histogram.resize(d + 1, 0);
      }
      ++out.diameter_histogram[d];
    }
    if (i == 0 || d > out.worst_diameter) {
      out.worst_diameter = d;
      out.worst_index = i;
      out.worst_faults = sets[i];
    }
  }
  return out;
}

void expect_same_diameters(const FaultSweepSummary& got,
                           const FaultSweepSummary& want) {
  EXPECT_EQ(got.total_sets, want.total_sets);
  EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
  EXPECT_EQ(got.disconnected, want.disconnected);
  EXPECT_EQ(got.worst_diameter, want.worst_diameter);
  EXPECT_EQ(got.worst_index, want.worst_index);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
}

TEST(FaultSweep, MatchesOneShotAndThreadInvariant) {
  for (const auto& entry : construction_tables()) {
    Rng rng(99);
    const auto sets =
        random_fault_sets(entry.g.num_nodes(), entry.t, 40, rng);

    FaultSweepOptions opts;
    opts.exec.threads = 1;
    opts.delivery_pairs = 6;
    opts.seed = 1234;
    const auto base = sweep_fault_sets(entry.table, sets, opts);

    // The diameter aggregates equal a serial fold of the one-shot path.
    {
      SCOPED_TRACE(entry.name + " vs one-shot");
      expect_same_diameters(base, one_shot_fold(entry.table, sets));
    }

    for (unsigned threads : kThreadCounts) {
      FaultSweepOptions par = opts;
      par.exec.threads = threads;
      const auto swept = sweep_fault_sets(entry.table, sets, par);
      SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads));
      expect_same_summary(base, swept);
    }
  }
}

TEST(FaultSweep, HistogramAccountsForEverySet) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(7);
  const auto sets = random_fault_sets(25, 6, 60, rng);
  FaultSweepOptions opts;
  opts.exec.threads = 2;
  const auto summary = sweep_fault_sets(kr.table, sets, opts);
  std::uint64_t total = summary.disconnected;
  for (const auto count : summary.diameter_histogram) total += count;
  EXPECT_EQ(total, sets.size());
  EXPECT_EQ(summary.worst_faults, sets[summary.worst_index]);
  EXPECT_EQ(surviving_diameter(kr.table, sets[summary.worst_index]),
            summary.worst_diameter);
}

TEST(ToleranceCheck, ReportThreadInvariant) {
  for (const auto& entry : construction_tables()) {
    // Exhaustive path (small f) and adversarial path (forced budget).
    for (const bool force_adversarial : {false, true}) {
      ToleranceCheckOptions opts;
      if (force_adversarial) {
        opts.exhaustive_budget = 1;
        opts.samples = 40;
        opts.hillclimb_restarts = 3;
        opts.hillclimb_steps = 6;
      }
      ToleranceReport base;
      bool have_base = false;
      for (unsigned threads : kThreadCounts) {
        ToleranceCheckOptions topts = opts;
        topts.exec.threads = threads;
        Rng rng(31);
        const auto report =
            check_tolerance(entry.table, entry.t, 6, rng, topts);
        if (!have_base) {
          base = report;
          have_base = true;
          EXPECT_EQ(report.exhaustive, !force_adversarial);
          continue;
        }
        SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads) +
                     (force_adversarial ? " adversarial" : " exhaustive"));
        EXPECT_EQ(report.worst_diameter, base.worst_diameter);
        EXPECT_EQ(report.worst_faults, base.worst_faults);
        EXPECT_EQ(report.fault_sets_checked, base.fault_sets_checked);
        EXPECT_EQ(report.holds, base.holds);
        EXPECT_EQ(report.exhaustive, base.exhaustive);
        EXPECT_EQ(report.summary(), base.summary());
      }
    }
  }
}

TEST(Adversary, ParallelCheckGrayUnitMatchesLexOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const auto serial = lex_worst_faults(25, 2, [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  });
  const SrgIndex index(kr.table);
  const auto base = check_tolerance(index, 2, 6, /*seed=*/1);
  ASSERT_TRUE(base.exhaustive);
  EXPECT_EQ(base.worst_diameter, serial.worst_diameter);
  EXPECT_EQ(base.fault_sets_checked, serial.evaluations);
  for (unsigned threads : kThreadCounts) {
    ToleranceCheckOptions opts;
    opts.exec.threads = threads;
    const auto par = check_tolerance(index, 2, 6, /*seed=*/1, opts);
    EXPECT_EQ(par.worst_diameter, base.worst_diameter);
    EXPECT_EQ(par.worst_faults, base.worst_faults);
    EXPECT_EQ(par.fault_sets_checked, base.fault_sets_checked);
  }
}

TEST(Adversary, SampledAndClimbUnitsThreadInvariant) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  UnitSpec sampled;
  sampled.kind = UnitKind::kSweepSampled;
  sampled.f = 3;
  sampled.seed = 77;
  sampled.end = 50;
  UnitSpec climb = sampled;
  climb.kind = UnitKind::kAdvClimb;
  climb.end = 4;
  climb.max_steps = 8;
  climb.climb_seeds = {{0, 1, 2}};
  const auto sampled_base = execute_unit(index, sampled);
  const auto climbed_base = execute_unit(index, climb);
  EXPECT_EQ(sampled_base.sets, 50u);
  for (unsigned threads : kThreadCounts) {
    sampled.exec.threads = threads;
    climb.exec.threads = threads;
    const auto s = execute_unit(index, sampled);
    EXPECT_EQ(s.worst_diameter, sampled_base.worst_diameter);
    EXPECT_EQ(s.worst_faults, sampled_base.worst_faults);
    EXPECT_EQ(s.sets, sampled_base.sets);
    const auto h = execute_unit(index, climb);
    EXPECT_EQ(h.worst_diameter, climbed_base.worst_diameter);
    EXPECT_EQ(h.worst_faults, climbed_base.worst_faults);
    EXPECT_EQ(h.sets, climbed_base.sets);
  }
}

TEST(Recovery, ComponentwiseSweepMatchesSerial) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(515);
  const auto sets = random_fault_sets(25, 5, 30, rng);
  const SrgIndex index(kr.table);
  std::vector<ComponentwiseDiameter> serial;
  for (const auto& faults : sets) {
    serial.push_back(componentwise_surviving_diameter(gg.graph, kr.table,
                                                      faults));
  }
  for (unsigned threads : kThreadCounts) {
    const auto swept = componentwise_sweep(gg.graph, index, sets, ExecPolicy{.threads = threads});
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(swept[i].worst, serial[i].worst) << "set " << i;
      EXPECT_EQ(swept[i].num_components, serial[i].num_components);
      EXPECT_EQ(swept[i].survivors, serial[i].survivors);
    }
  }
}

TEST(Planner, CertifiedRoutingThreadInvariant) {
  const auto gg = torus_graph(5, 5);
  ToleranceReport base;
  bool have_base = false;
  for (unsigned threads : kThreadCounts) {
    Rng rng(42);
    ToleranceCheckOptions opts;
    opts.exec.threads = threads;
    const auto certified =
        build_certified_routing(gg.graph, gg.known_connectivity, rng, opts);
    // The certificate is the measured evidence for the plan's claim.
    EXPECT_TRUE(certified.certificate.holds)
        << certified.certificate.summary();
    EXPECT_EQ(certified.certificate.claimed_bound,
              certified.routing.plan.guaranteed_diameter);
    if (!have_base) {
      base = certified.certificate;
      have_base = true;
      continue;
    }
    EXPECT_EQ(certified.certificate.summary(), base.summary());
    EXPECT_EQ(certified.certificate.worst_faults, base.worst_faults);
  }
}

// A unit's serial oracle: set i's diameter from the one-shot surviving
// graph and its delivery from the Digraph oracle on Rng::stream(seed, i),
// folded in index order.
SweepPartial oracle_unit(const RoutingTable& table, const UnitSpec& unit,
                         const std::vector<std::vector<Node>>& sets) {
  SweepPartial out;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::uint64_t index = unit.begin + i;
    const std::uint32_t d = surviving_diameter(table, sets[i]);
    ++out.sets;
    if (d == kUnreachable) {
      ++out.disconnected;
    } else {
      if (d >= out.diameter_histogram.size()) {
        out.diameter_histogram.resize(d + 1, 0);
      }
      ++out.diameter_histogram[d];
    }
    if (!out.have_worst || d > out.worst_diameter) {
      out.have_worst = true;
      out.worst_diameter = d;
      out.worst_index = index;
      out.worst_faults = sets[i];
    }
    Rng rng = Rng::stream(unit.seed, index);
    const DeliveryStats del = oracle_measure_delivery(
        table, sets[i], static_cast<std::size_t>(unit.delivery_pairs), rng);
    out.pairs_sampled += del.pairs_sampled;
    out.delivered += del.delivered;
    out.route_hops_total += del.route_hops_total;
    out.max_route_hops = std::max(out.max_route_hops, del.max_route_hops);
    out.max_edge_hops = std::max(out.max_edge_hops, del.max_edge_hops);
  }
  return out;
}

// execute_unit keeps one scratch per executor worker and reuses it in
// every later window. Each unit here spans at least 3 windows at every
// thread count and batch size, and delivers on every set, so each scratch
// carries fault stamps, lane state and delivery buffers from one window
// into the next; the results must still equal the serial oracle's.
TEST(FaultSweep, ScratchReusedAcrossWindowsMatchesOracle) {
  const auto gg = torus_graph(6, 6);
  const RoutingTable table = build_kernel_routing(gg.graph, 3).table;
  const SrgIndex index(table);
  const std::size_t n = gg.graph.num_nodes();

  UnitSpec gray;
  gray.kind = UnitKind::kSweepGray;
  gray.f = 3;
  gray.end = binomial(n, 3);
  UnitSpec sampled;
  sampled.kind = UnitKind::kSweepSampled;
  sampled.f = 4;
  sampled.begin = 100;
  sampled.end = 1100;
  UnitSpec explicit_sets;
  explicit_sets.kind = UnitKind::kSweepExplicit;
  explicit_sets.begin = 50;
  Rng draw(31);
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto set = draw.sample(n, draw.below(6));
    explicit_sets.sets.emplace_back(set.begin(), set.end());
  }
  explicit_sets.end = explicit_sets.begin + explicit_sets.sets.size();

  for (UnitSpec* unit : {&gray, &sampled, &explicit_sets}) {
    unit->seed = 77;
    unit->delivery_pairs = 3;
    std::vector<std::vector<Node>> sets = unit->sets;
    for (std::uint64_t i = unit->begin; sets.size() < unit->end - unit->begin;
         ++i) {
      if (unit->kind == UnitKind::kSweepGray) {
        const auto set = gray_subset_at_rank(n, unit->f, i);
        sets.emplace_back(set.begin(), set.end());
      } else {
        const auto set = Rng::stream(unit->seed, i).sample(n, unit->f);
        sets.emplace_back(set.begin(), set.end());
      }
    }
    const SweepPartial want = oracle_unit(table, *unit, sets);
    ASSERT_GT(want.delivered, 0u);
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const std::size_t batch : {7u, 64u}) {
        SCOPED_TRACE(std::string(unit_kind_name(unit->kind)) +
                     " threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        unit->exec.threads = threads;
        unit->exec.batch_size = batch;
        const std::uint64_t grain = unit->kind == UnitKind::kSweepGray
                                        ? lane_aligned(batch)
                                        : batch;
        ASSERT_GE(sets.size(), 2 * grain * threads + 1);  // >= 3 windows
        const SweepPartial got = execute_unit(index, *unit);
        EXPECT_EQ(got.sets, want.sets);
        EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
        EXPECT_EQ(got.disconnected, want.disconnected);
        EXPECT_EQ(got.worst_diameter, want.worst_diameter);
        EXPECT_EQ(got.worst_index, want.worst_index);
        EXPECT_EQ(got.worst_faults, want.worst_faults);
        EXPECT_EQ(got.pairs_sampled, want.pairs_sampled);
        EXPECT_EQ(got.delivered, want.delivered);
        EXPECT_EQ(got.route_hops_total, want.route_hops_total);
        EXPECT_EQ(got.max_route_hops, want.max_route_hops);
        EXPECT_EQ(got.max_edge_hops, want.max_edge_hops);
      }
    }
  }
}

}  // namespace
}  // namespace ftr
