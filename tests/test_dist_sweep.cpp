// Differential tests for the multi-process sweep layer: every distributed
// result must be bit-identical to the in-process computation — for any
// worker count, any unit size, with workers dying or hanging mid-unit. The
// pool is exercised through the same entry points the CLI uses.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/planner.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

// Sets FTROUTE_TEST_WORKER_FAIL for the pool forked inside the scope.
class ScopedWorkerFail {
 public:
  explicit ScopedWorkerFail(const char* spec) {
    ::setenv("FTROUTE_TEST_WORKER_FAIL", spec, 1);
  }
  ~ScopedWorkerFail() { ::unsetenv("FTROUTE_TEST_WORKER_FAIL"); }
};

struct Rig {
  Rig() : gg(torus_graph(4, 4)), kr(build_kernel_routing(gg.graph, 1)) {
    snap = make_table_snapshot(gg.graph, kr.table);
  }
  DistPoolOptions pool_options(unsigned workers, std::uint64_t unit_items,
                               double timeout_sec = 300.0) const {
    DistPoolOptions o;
    o.workers = workers;
    o.unit_items = unit_items;
    o.unit_timeout_sec = timeout_sec;
    return o;
  }
  GeneratedGraph gg;
  KernelRouting kr;
  TableSnapshot snap;
};

void expect_summary_equal(const FaultSweepSummary& got,
                          const FaultSweepSummary& want) {
  EXPECT_EQ(got.total_sets, want.total_sets);
  EXPECT_EQ(got.diameter_histogram, want.diameter_histogram);
  EXPECT_EQ(got.disconnected, want.disconnected);
  EXPECT_EQ(got.worst_diameter, want.worst_diameter);
  EXPECT_EQ(got.worst_index, want.worst_index);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
  EXPECT_EQ(got.pairs_sampled, want.pairs_sampled);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_DOUBLE_EQ(got.avg_route_hops, want.avg_route_hops);
  EXPECT_EQ(got.max_route_hops, want.max_route_hops);
  EXPECT_EQ(got.max_edge_hops, want.max_edge_hops);
}

void expect_report_equal(const ToleranceReport& got,
                         const ToleranceReport& want) {
  EXPECT_EQ(got.summary(), want.summary());
  EXPECT_EQ(got.worst_diameter, want.worst_diameter);
  EXPECT_EQ(got.worst_faults, want.worst_faults);
  EXPECT_EQ(got.fault_sets_checked, want.fault_sets_checked);
  EXPECT_EQ(got.exhaustive, want.exhaustive);
  EXPECT_EQ(got.holds, want.holds);
}

TEST(DistWire, UnitAndResultPayloadsRoundtrip) {
  UnitSpec u;
  u.kind = UnitKind::kSweepSampled;
  u.unit_id = 42;
  u.f = 3;
  u.begin = 7;
  u.end = 19;
  u.seed = 0xdeadbeefcafe;
  u.delivery_pairs = 5;
  // threads and batch_size travel as plain u32/u64 fields at full width;
  // progress_every stays in the coordinator.
  u.exec.batch_size = (std::size_t{1} << 62) + 77;
  u.exec.threads = 0xfffffffeu;
  u.exec.progress_every = 99;
  u.sets = {{1, 2, 3}, {4, 5}};
  const UnitSpec d = decode_unit(encode_unit(u));
  EXPECT_EQ(d.kind, u.kind);
  EXPECT_EQ(d.unit_id, u.unit_id);
  EXPECT_EQ(d.f, u.f);
  EXPECT_EQ(d.begin, u.begin);
  EXPECT_EQ(d.end, u.end);
  EXPECT_EQ(d.seed, u.seed);
  EXPECT_EQ(d.delivery_pairs, u.delivery_pairs);
  EXPECT_EQ(d.exec.batch_size, u.exec.batch_size);
  EXPECT_EQ(d.exec.threads, u.exec.threads);
  EXPECT_EQ(d.exec.progress_every, 0u);
  EXPECT_EQ(d.sets, u.sets);

  SweepPartial sp;
  sp.sets = 11;
  sp.diameter_histogram = {0, 3, 8};
  sp.disconnected = 2;
  sp.have_worst = true;
  sp.worst_diameter = 9;
  sp.worst_index = 6;
  sp.worst_faults = {3, 14};
  sp.pairs_sampled = 44;
  sp.delivered = 40;
  sp.route_hops_total = 123;
  sp.max_route_hops = 7;
  sp.max_edge_hops = 15;
  const auto [sid, sd] = decode_sweep_result(encode_sweep_result(42, sp));
  EXPECT_EQ(sid, 42u);
  EXPECT_EQ(sd.sets, sp.sets);
  EXPECT_EQ(sd.diameter_histogram, sp.diameter_histogram);
  EXPECT_EQ(sd.disconnected, sp.disconnected);
  EXPECT_EQ(sd.have_worst, sp.have_worst);
  EXPECT_EQ(sd.worst_diameter, sp.worst_diameter);
  EXPECT_EQ(sd.worst_index, sp.worst_index);
  EXPECT_EQ(sd.worst_faults, sp.worst_faults);
  EXPECT_EQ(sd.route_hops_total, sp.route_hops_total);
  EXPECT_EQ(sd.max_edge_hops, sp.max_edge_hops);

  const auto [eid, msg] = decode_error(encode_error(~std::uint64_t{0}, "boom"));
  EXPECT_EQ(eid, ~std::uint64_t{0});
  EXPECT_EQ(msg, "boom");
}

TEST(DistWire, EveryProperPrefixOfAUnitThrows) {
  UnitSpec u;
  u.kind = UnitKind::kSweepExplicit;
  u.f = 2;
  u.end = 2;
  u.exec.threads = 3;
  u.exec.batch_size = 5;
  u.sets = {{1, 2}, {4, 5}};
  const std::vector<unsigned char> whole = encode_unit(u);
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    const std::vector<unsigned char> prefix(
        whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_unit(prefix), ContractViolation) << "cut=" << cut;
  }
  EXPECT_EQ(decode_unit(whole).sets, u.sets);
}

TEST(DistWire, FramesReassembleFromArbitraryByteArrivals) {
  const auto payload = encode_error(1, "partial-delivery probe");
  const auto frame = pack_frame(FrameType::kError, payload);
  std::vector<unsigned char> buf;
  WireFrame out;
  // Byte-at-a-time arrival: no prefix shorter than the frame may parse.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buf.push_back(frame[i]);
    EXPECT_FALSE(pop_frame(buf, out));
  }
  buf.push_back(frame.back());
  ASSERT_TRUE(pop_frame(buf, out));
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(out.type, FrameType::kError);
  EXPECT_EQ(out.payload, payload);

  // A flipped payload byte must be caught by the frame checksum.
  std::vector<unsigned char> cbuf(frame.begin(), frame.end());
  ASSERT_FALSE(cbuf.empty());
  cbuf[cbuf.size() - 1] ^= 0x01;
  EXPECT_THROW(pop_frame(cbuf, out), ContractViolation);
}

// decode_unit bounds each list count by the bytes left before reserving: a
// frame with a valid checksum whose set count is 2^32-1 is a
// ContractViolation, not a ~100 GB allocation.
TEST(DistWire, HugeListCountsAreRejectedBeforeAllocation) {
  UnitSpec u;
  u.kind = UnitKind::kSweepExplicit;
  const auto payload = encode_unit(u);
  // The payload ends with the one list count (sets), 0.
  auto bad = payload;
  for (std::size_t i = payload.size() - 4; i < payload.size(); ++i) {
    bad[i] = 0xff;
  }
  auto buf = pack_frame(FrameType::kUnit, bad);
  WireFrame frame;
  ASSERT_TRUE(pop_frame(buf, frame));  // the checksum holds
  EXPECT_THROW(decode_unit(frame.payload), ContractViolation);
}

// Unit kinds and frame types are checked at decode time. Unit kinds 4, 5
// and 6 were the retired adversary scans (Gray, lexicographic, sampled),
// frame type 4 their result, and kind 7 the retired hill-climb unit; a
// frame still carrying one must be refused, as must any kind or type the
// enums never had.
TEST(DistWire, UnknownUnitKindsAreRejected) {
  for (const std::uint32_t kind : {4u, 5u, 6u, 7u, 0u, 8u, 0xffffffffu}) {
    auto payload = encode_unit(UnitSpec{});
    for (int i = 0; i < 4; ++i) payload[i] = (kind >> (8 * i)) & 0xff;
    EXPECT_THROW(decode_unit(payload), ContractViolation) << "kind " << kind;
  }
  for (const std::uint32_t type : {4u, 0u, 1u, 5u, 7u, 0xffffffffu}) {
    auto buf = pack_frame(static_cast<FrameType>(type), encode_error(0, "x"));
    WireFrame frame;
    EXPECT_THROW(pop_frame(buf, frame), ContractViolation) << "type " << type;
  }
}

// begin > end would wrap end - begin into a ~2^64-set window (a sampled
// unit would walk it instead of failing), so decode refuses it. An empty
// window (begin == end) is legal.
TEST(DistWire, InvertedWindowIsRejected) {
  UnitSpec u;
  u.kind = UnitKind::kSweepSampled;
  u.f = 2;
  u.begin = 10;
  u.end = 3;
  EXPECT_THROW(decode_unit(encode_unit(u)), ContractViolation);
  u.end = u.begin;
  const UnitSpec d = decode_unit(encode_unit(u));
  EXPECT_EQ(d.begin, 10u);
  EXPECT_EQ(d.end, 10u);
}

// The merge authority: folding window partials must equal the whole-range
// computation, for any cut points.
TEST(DistSweep, MergeSweepPartialsFoldsLikeOneRange) {
  const Rig rig;
  const std::size_t f = 2;
  const std::uint64_t total = binomial(rig.gg.graph.num_nodes(), f);
  FaultSweepOptions opts;
  opts.delivery_pairs = 3;
  opts.seed = 11;

  const SweepPartial whole = sweep_exhaustive_gray_range(
      rig.kr.table, *rig.snap.index, f, 0, total, opts);
  for (const std::vector<std::uint64_t>& cuts :
       {std::vector<std::uint64_t>{0, 1, total},
        std::vector<std::uint64_t>{0, 7, 20, total},
        std::vector<std::uint64_t>{0, total / 2, total}}) {
    SweepPartial folded;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SweepPartial piece = sweep_exhaustive_gray_range(
          rig.kr.table, *rig.snap.index, f, cuts[i], cuts[i + 1], opts);
      merge_sweep_partials(folded, piece);
    }
    expect_summary_equal(summarize_sweep_partial(folded),
                         summarize_sweep_partial(whole));
  }
}

TEST(DistSweep, ExhaustiveSweepMatchesInProcessForAnyPoolShape) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const std::uint64_t unit_items : {std::uint64_t{1}, std::uint64_t{7},
                                           std::uint64_t{0}}) {
      DistSweepPool pool(rig.snap, "", rig.pool_options(workers, unit_items));
      const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
      expect_summary_equal(got, want);
      EXPECT_EQ(pool.stats().units_retried, 0u);
      EXPECT_EQ(pool.stats().units_inline, 0u);
    }
  }
}

TEST(DistSweep, SampledSweepWithDeliveryMatchesInProcess) {
  const Rig rig;
  FaultSweepOptions opts;
  opts.delivery_pairs = 4;
  opts.seed = 9;
  SampledStreamSource source(rig.gg.graph.num_nodes(), 2, 60, opts.seed);
  const auto want =
      sweep_fault_source(rig.kr.table, *rig.snap.index, source, opts);
  for (const unsigned workers : {1u, 3u}) {
    DistSweepPool pool(rig.snap, "", rig.pool_options(workers, 13));
    const auto got = summarize_sweep_partial(
        pool.run(sweep_unit(UnitKind::kSweepSampled, 2, 60, opts)));
    expect_summary_equal(got, want);
  }
}

TEST(DistSweep, ExplicitSourceMatchesInProcessAndHandlesEmptyFeeds) {
  const Rig rig;
  // Materialize a reproducible set list, then feed it both ways.
  std::vector<std::vector<Node>> sets;
  {
    SampledStreamSource src(rig.gg.graph.num_nodes(), 3, 41, 5);
    std::vector<Node> s;
    while (src.next(s)) sets.push_back(s);
  }
  FaultSweepOptions opts;
  opts.delivery_pairs = 2;
  opts.seed = 21;
  ExplicitListSource want_src(sets);
  const auto want =
      sweep_fault_source(rig.kr.table, *rig.snap.index, want_src, opts);

  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 10));
  ExplicitListSource got_src(sets);
  const auto got = summarize_sweep_partial(pool.sweep_source(got_src, opts));
  expect_summary_equal(got, want);

  // An empty feed distributes to zero units and zero aggregates.
  const std::vector<std::vector<Node>> none;
  ExplicitListSource empty_src(none);
  const auto zero = summarize_sweep_partial(pool.sweep_source(empty_src, opts));
  EXPECT_EQ(zero.total_sets, 0u);
  EXPECT_EQ(zero.worst_diameter, 0u);
}

// An explicit unit covers exactly its window: split hands each piece only
// its own slice of the literal sets, and the executor rejects a unit whose
// set count disagrees with its window (which also catches a bad frame).
TEST(DistSweep, ExplicitUnitSweepsExactlyItsWindow) {
  const Rig rig;
  FaultSweepOptions opts;
  opts.delivery_pairs = 2;
  opts.seed = 3;
  UnitSpec whole = sweep_unit(UnitKind::kSweepExplicit, 0, 10, opts);
  {
    SampledStreamSource src(rig.gg.graph.num_nodes(), 2, 10, 17);
    std::vector<Node> s;
    while (src.next(s)) whole.sets.push_back(s);
  }
  const auto want =
      summarize_sweep_partial(execute_unit(*rig.snap.index, whole));
  EXPECT_EQ(want.total_sets, 10u);
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 3));
  expect_summary_equal(summarize_sweep_partial(pool.run(whole)), want);

  UnitSpec bad = whole;
  bad.end = 3;
  EXPECT_THROW(execute_unit(*rig.snap.index, bad), ContractViolation);
  bad = whole;
  bad.sets.pop_back();
  EXPECT_THROW(execute_unit(*rig.snap.index, bad), ContractViolation);
}

// A unit with more faults than nodes is refused with a message, by the
// pool as in process, even when its window splits into no units at all
// (an exhaustive sweep's C(16, 20) = 0 ranks, or 0 sampled sets).
TEST(DistSweep, UnitWithMoreFaultsThanNodesIsRefused) {
  const Rig rig;
  const FaultSweepOptions opts;
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 0));
  for (const UnitKind kind : {UnitKind::kSweepGray, UnitKind::kSweepSampled}) {
    SCOPED_TRACE(unit_kind_name(kind));
    const UnitSpec unit = sweep_unit(kind, 20, 0, opts);
    EXPECT_THROW(execute_unit(*rig.snap.index, unit), ContractViolation);
    try {
      (void)pool.run(unit);
      FAIL() << "the pool ran a 20-fault unit over 16 nodes";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("20 faults exceed the 16 nodes"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(pool.sweep_exhaustive(20, opts), ContractViolation);
  EXPECT_EQ(pool.stats().units_dispatched, 0u);
}

TEST(DistSweep, SnapshotFileFedWorkersMatchPayloadFedWorkers) {
  const Rig rig;
  const std::string path = ::testing::TempDir() + "dist_sweep_rig.snap";
  save_table_snapshot_file(rig.snap, path);
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  DistSweepPool pool(rig.snap, path, rig.pool_options(2, 11));
  expect_summary_equal(summarize_sweep_partial(pool.sweep_exhaustive(2, opts)),
                       want);
  ::unlink(path.c_str());
}

// A check whose units run through the pool must report exactly what the
// in-process check reports, on every path of the decision tree: exhaustive
// at f <= 3, exhaustive beyond f = 3 (C(16, 4) = 1820 fits the default
// budget), and sampling + the in-process hill-climb — for any worker count
// and unit size.
TEST(DistCheck, PoolRunnerMatchesInProcessOnEveryPath) {
  const Rig rig;
  struct Path {
    std::uint32_t f;
    bool adversarial;
  };
  for (const Path path : {Path{2, false}, Path{4, false}, Path{3, true}}) {
    ToleranceCheckOptions opts;
    if (path.adversarial) {
      opts.exhaustive_budget = 1;
      opts.samples = 40;
      opts.hillclimb_restarts = 4;
      opts.hillclimb_steps = 8;
    }
    Rng rng_local(6);
    const auto want = check_tolerance(rig.kr.table, path.f, 6, rng_local, opts);
    ASSERT_EQ(want.exhaustive, !path.adversarial);
    for (const unsigned workers : {1u, 3u}) {
      for (const std::uint64_t unit_items :
           {std::uint64_t{1}, std::uint64_t{0}}) {
        SCOPED_TRACE("f=" + std::to_string(path.f) +
                     " workers=" + std::to_string(workers) +
                     " unit_items=" + std::to_string(unit_items));
        DistSweepPool pool(rig.snap, "", rig.pool_options(workers, unit_items));
        ToleranceCheckOptions dopts = opts;
        dopts.runner = [&pool](const UnitSpec& u) { return pool.run(u); };
        Rng rng(6);
        expect_report_equal(
            check_tolerance(*rig.snap.index, path.f, 6, rng(),
                            with_route_load_seeds(rig.snap.route_load_ranking,
                                                  path.f, dopts)),
            want);
        EXPECT_GE(pool.stats().units_completed, 1u);
        EXPECT_EQ(pool.stats().units_inline, 0u);
      }
    }
  }
}

// Past the exhaustive budget (C(32, 4) = 35,960 > 20,000) a check hands
// the pool one 200-set sampled unit and climbs in process. Auto-sized
// units are whole 512-item lane blocks, so the sampled unit stays one unit
// and runs packed, and the report equals the in-process one.
TEST(DistCheck, AutoUnitsAreWholeLaneBlocksOfEveryKind) {
  const auto gg = hypercube(5);
  Rng plan_rng(42);
  auto planned = build_planned_routing(gg.graph, std::nullopt, plan_rng);
  const TableSnapshot snap =
      make_table_snapshot(gg.graph, std::move(planned.table), planned.plan);
  const std::uint32_t f = 4;
  const std::uint32_t claimed = snap.plan.guaranteed_diameter;
  const ToleranceCheckOptions opts =
      with_route_load_seeds(snap.route_load_ranking, f, {});
  const auto want = check_tolerance(*snap.index, f, claimed, 11, opts);
  ASSERT_FALSE(want.exhaustive);
  DistPoolOptions popts;
  popts.workers = 2;
  DistSweepPool pool(snap, "", popts);
  ToleranceCheckOptions dopts = opts;
  dopts.runner = [&pool](const UnitSpec& u) { return pool.run(u); };
  expect_report_equal(check_tolerance(*snap.index, f, claimed, 11, dopts),
                      want);
  EXPECT_EQ(pool.stats().units_dispatched, 1u);
}

TEST(DistFailure, DeadWorkerUnitIsReassignedWithoutChangingResults) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  // Worker 0 exits while executing the first unit it receives; its window
  // must be re-dispatched to the survivor — never lost, never duplicated.
  const ScopedWorkerFail fail("exit:0:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 8));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_GE(pool.stats().units_retried, 1u);
  EXPECT_GE(pool.stats().workers_exited, 1u);
  EXPECT_EQ(pool.stats().workers_spawned, 2u);
}

TEST(DistFailure, LastWorkerDyingFallsBackToInlineExecution) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  const ScopedWorkerFail fail("exit:0:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(1, 16));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_EQ(pool.live_workers(), 0u);
  EXPECT_GE(pool.stats().units_inline, 1u);
}

TEST(DistFailure, HungWorkerIsKilledAndItsUnitRunsInline) {
  const Rig rig;
  FaultSweepOptions opts;
  const auto want = sweep_exhaustive_gray(rig.kr.table, *rig.snap.index, 2,
                                          opts);
  // Worker 1 hangs on its first unit; the watchdog must SIGKILL it within
  // the timeout and the coordinator completes the window itself.
  const ScopedWorkerFail fail("hang:1:0");
  DistSweepPool pool(rig.snap, "", rig.pool_options(2, 8, /*timeout=*/0.25));
  const auto got = summarize_sweep_partial(pool.sweep_exhaustive(2, opts));
  expect_summary_equal(got, want);
  EXPECT_GE(pool.stats().workers_killed, 1u);
  EXPECT_GE(pool.stats().units_inline, 1u);
}

TEST(DistFailure, ParseWorkerFailSpecIsStrict) {
  EXPECT_EQ(parse_worker_fail_spec(nullptr).mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("").mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("exit:1").mode, WorkerFailSpec::Mode::kNone);
  EXPECT_EQ(parse_worker_fail_spec("boom:1:2").mode,
            WorkerFailSpec::Mode::kNone);
  const auto e = parse_worker_fail_spec("exit:3:14");
  EXPECT_EQ(e.mode, WorkerFailSpec::Mode::kExit);
  EXPECT_EQ(e.worker, 3u);
  EXPECT_EQ(e.unit_ordinal, 14u);
  const auto h = parse_worker_fail_spec("hang:0:1");
  EXPECT_EQ(h.mode, WorkerFailSpec::Mode::kHang);
}

}  // namespace
}  // namespace ftr
