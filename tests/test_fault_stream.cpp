// The streaming fault-sweep layer: FaultSetSource implementations, the
// sweep unit executor fed from them at constant memory, and the
// revolving-door (Gray) exhaustive units. The central contracts, all differential:
//
//  * streaming a source == materializing the same sets == running the
//    equivalent sampled or explicit unit, for any thread count and any
//    batch size;
//  * sweep_exhaustive_gray (packed lane blocks, with or without delivery)
//    is bit-identical — histograms, verdicts, worst witness, delivery — to
//    pushing an ExhaustiveGraySource through the generic engine, on
//    kernel / circular / tri-circular tables, threads {1, 2, 8}, f in
//    {1, 2, 3};
//  * the line-delimited istream feed reproduces the materialized sweep at
//    any thread count and batch size, and a bad feed reports its first bad
//    line whatever the thread count.
#include "analysis/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/fault_gen.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"
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
// families the gray-vs-rebuild acceptance criterion names.
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
    const auto gg = cycle_graph(45);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tricircular/cycle", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

// Every deterministic aggregate of the summary (telemetry excluded).
void expect_same_aggregates(const FaultSweepSummary& a,
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

// --- sources -----------------------------------------------------------------

TEST(FaultSetSource, ExplicitListYieldsTheListInOrder) {
  const std::vector<std::vector<Node>> sets = {{1, 2}, {0}, {3, 4, 5}};
  ExplicitListSource source(sets);
  ASSERT_TRUE(source.size().has_value());
  EXPECT_EQ(*source.size(), sets.size());
  std::vector<Node> out;
  for (const auto& expected : sets) {
    ASSERT_TRUE(source.next(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(source.next(out));
  EXPECT_FALSE(source.next(out));  // stays exhausted
}

TEST(FaultSetSource, SampledStreamIsAPureFunctionOfSeedAndIndex) {
  SampledStreamSource source(30, 3, 16, 99);
  std::vector<Node> out;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(source.next(out));
    Rng rng = Rng::stream(99, i);
    const auto expected = rng.sample(30, 3);
    EXPECT_EQ(out, std::vector<Node>(expected.begin(), expected.end()));
  }
  EXPECT_FALSE(source.next(out));
}

TEST(FaultSetSource, ExhaustiveGrayMatchesTheEnumerator) {
  ExhaustiveGraySource source(7, 3);
  ASSERT_TRUE(source.size().has_value());
  EXPECT_EQ(*source.size(), binomial(7, 3));
  GraySubsetEnumerator e(7, 3);
  std::vector<Node> out;
  std::uint64_t count = 0;
  while (source.next(out)) {
    EXPECT_EQ(out, std::vector<Node>(e.current().begin(), e.current().end()));
    ++count;
    if (count < binomial(7, 3)) e.advance();
  }
  EXPECT_EQ(count, binomial(7, 3));
}

TEST(FaultSetSource, IstreamParsesLinesCommentsAndBlanks) {
  std::istringstream in(
      "1 2 3\n"
      "\n"
      "# a full-line comment\n"
      "  7   0  # trailing comment\n"
      "4\n");
  IstreamFaultSetSource source(in, 10);
  std::vector<Node> out;
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{1, 2, 3}));
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{7, 0}));
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{4}));
  EXPECT_FALSE(source.next(out));
}

TEST(FaultSetSource, IstreamRejectsGarbageAndOutOfRangeIds) {
  {
    std::istringstream in("1 frog 2\n");
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    EXPECT_THROW(source.next(out), ContractViolation);
  }
  {
    std::istringstream in("3 99\n");
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    EXPECT_THROW(source.next(out), ContractViolation);
  }
}

TEST(FaultSetSource, IstreamErrorsNameTheLineAndToken) {
  // Malformed feeds fail with the 1-based line number and the offending
  // token — never a silent wrap or half-parsed line. Comment and blank
  // lines count toward the numbering (they are real lines of the feed).
  const auto expect_throw_mentioning = [](const std::string& text,
                                          const std::string& line_tag,
                                          const std::string& token) {
    std::istringstream in(text);
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    for (;;) {
      try {
        if (!source.next(out)) {
          FAIL() << "expected ContractViolation from: " << text;
          return;
        }
      } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(line_tag), std::string::npos) << what;
        EXPECT_NE(what.find(token), std::string::npos) << what;
        return;
      }
    }
  };
  expect_throw_mentioning("1 2\n# comment\n\n4 frog\n", "line 4", "'frog'");
  // A negative id is non-numeric, not a 2^64 wraparound.
  expect_throw_mentioning("-1 3\n", "line 1", "'-1'");
  expect_throw_mentioning("0 1\n3 99\n", "line 2", "'99'");
  // Digits that overflow unsigned long long are out of range, not UB.
  expect_throw_mentioning("123456789012345678901234567890\n", "line 1",
                          "out of range");
}

// A newline-free feed must not be buffered whole: the reader stops at
// kMaxLineBytes and fails naming the line.
TEST(FaultSetSource, IstreamRejectsAnOverLongLine) {
  std::istringstream in("1 2\n" + std::string(4u << 20, '7'));
  IstreamFaultSetSource source(in, 10);
  std::vector<Node> out;
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{1, 2}));
  try {
    source.next(out);
    FAIL() << "over-long line accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2 is longer than"),
              std::string::npos)
        << e.what();
  }
}

// --- streaming engine vs materialized path ----------------------------------

// Two inputs, each swept three ways: materialized, streamed through its
// source, and run in-process as the equivalent unit — an explicit list
// (ExplicitListSource / kSweepExplicit) and a seeded sample stream
// (SampledStreamSource / kSweepSampled), with delivery. The materialized
// reference runs in chunks of 7, too small for a packed block, so every
// set is evaluated on its own; at batch 256 and 1024 the same sets fill
// lane blocks of unrelated sets wherever the CPU's lane width lets a block
// profit, and their delivery reads fault stamps alone.
TEST(FaultStream, StreamingMatchesMaterializedAcrossThreadsAndBatches) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  constexpr std::size_t kFaults = 4;
  constexpr std::uint64_t kSets = 700;

  FaultSweepOptions base_opts;
  base_opts.delivery_pairs = 5;
  base_opts.seed = 4242;
  Rng rng(17);
  const auto listed = random_fault_sets(25, kFaults, kSets, rng);
  std::vector<std::vector<Node>> sampled;
  {
    SampledStreamSource source(25, kFaults, kSets, base_opts.seed);
    std::vector<Node> set;
    while (source.next(set)) sampled.push_back(set);
  }

  for (const UnitKind kind :
       {UnitKind::kSweepExplicit, UnitKind::kSweepSampled}) {
    const bool is_explicit = kind == UnitKind::kSweepExplicit;
    const auto& sets = is_explicit ? listed : sampled;
    FaultSweepOptions per_set = base_opts;
    per_set.exec.batch_size = 7;
    const auto materialized = sweep_fault_sets(kr.table, index, sets, per_set);
    ASSERT_EQ(materialized.total_sets, sets.size());
    EXPECT_EQ(materialized.worst_faults, sets[materialized.worst_index]);

    for (unsigned threads : kThreadCounts) {
      // Deliberately awkward batch sizes: boundaries must never show.
      for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{256},
                                std::size_t{1024}}) {
        FaultSweepOptions opts = base_opts;
        opts.exec.threads = threads;
        opts.exec.batch_size = batch;
        SCOPED_TRACE(std::string(unit_kind_name(kind)) +
                     " threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        std::unique_ptr<FaultSetSource> source;
        if (is_explicit) {
          source = std::make_unique<ExplicitListSource>(sets);
        } else {
          source = std::make_unique<SampledStreamSource>(25, kFaults, kSets,
                                                         opts.seed);
        }
        expect_same_aggregates(
            sweep_fault_source(kr.table, index, *source, opts), materialized);

        UnitSpec unit = sweep_unit(kind, kFaults, kSets, opts);
        if (is_explicit) unit.sets = sets;
        expect_same_aggregates(
            summarize_sweep_partial(execute_unit(index, unit)),
            materialized);
      }
    }
  }
}

TEST(FaultStream, EmptySourceYieldsEmptySummary) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const SrgIndex index(kr.table);
  std::istringstream in("# nothing but comments\n\n");
  IstreamFaultSetSource source(in, 16);
  const auto summary = sweep_fault_source(kr.table, index, source, {});
  EXPECT_EQ(summary.total_sets, 0u);
  EXPECT_EQ(summary.disconnected, 0u);
  EXPECT_TRUE(summary.diameter_histogram.empty());
  EXPECT_TRUE(summary.worst_faults.empty());
}

// A feed's lines are not its set indices: comments and blank lines count
// toward the line numbers only. Streamed at every thread count and batch
// size (chunks of one set, short tails, single lane blocks, several
// blocks), with delivery, the feed must reproduce the materialized sweep.
TEST(FaultStream, IstreamFeedMatchesMaterialized) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(31);
  std::vector<std::vector<Node>> sets;
  for (std::size_t f = 1; f <= 5; ++f) {
    const auto some = random_fault_sets(25, f, 300, rng);
    sets.insert(sets.end(), some.begin(), some.end());
  }

  std::string text = "# a seeded feed\n\n";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i % 97 == 0) text += "# comment\n";
    if (i % 131 == 0) text += "   \n";
    for (const Node v : sets[i]) text += std::to_string(v) + ' ';
    text += i % 5 == 0 ? "# trailing\n" : "\n";
  }

  FaultSweepOptions base_opts;
  base_opts.delivery_pairs = 2;
  base_opts.seed = 77;
  const auto materialized = sweep_fault_sets(kr.table, index, sets, base_opts);
  ASSERT_EQ(materialized.total_sets, sets.size());
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{96}, std::size_t{512},
                                    std::size_t{1024}}) {
      FaultSweepOptions opts = base_opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      std::istringstream in(text);
      IstreamFaultSetSource source(in, 25);
      const auto streamed = sweep_fault_source(kr.table, index, source, opts);
      expect_same_aggregates(streamed, materialized);
      EXPECT_EQ(streamed.executor.chunks_local,
                num_chunks(sets.size(), batch));
    }
  }
}

// Counts the reads a sweep makes after its source has thrown. The sweep
// calls next() only under its read lock, so plain fields do.
class WatchedSource final : public FaultSetSource {
 public:
  explicit WatchedSource(FaultSetSource& inner) : inner_(&inner) {}
  bool next(std::vector<Node>& out) override {
    if (threw_) ++reads_after_throw_;
    try {
      return inner_->next(out);
    } catch (...) {
      threw_ = true;
      throw;
    }
  }
  std::uint64_t reads_after_throw() const { return reads_after_throw_; }

 private:
  FaultSetSource* inner_;
  bool threw_ = false;
  std::uint64_t reads_after_throw_ = 0;
};

// A bad feed fails with its first bad line's message at every thread count
// and batch size: the source is read in order under one lock, and no
// worker reads past the line that threw.
TEST(FaultStream, IstreamFeedReportsItsFirstBadLineAtAnyThreadCount) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(41);
  const auto sets = random_fault_sets(25, 3, 400, rng);
  std::string text;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i == 150) text += "3 frog 4\n";  // line 151
    if (i == 300) text += "2 25\n";      // line 302: id out of range
    for (const Node v : sets[i]) text += std::to_string(v) + ' ';
    text += '\n';
  }
  const std::string expected =
      "fault-set line 151: node id 'frog' non-numeric or out of range "
      "(n = 25)";
  for (const unsigned threads : {1u, 4u, 8u}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      FaultSweepOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      std::istringstream in(text);
      IstreamFaultSetSource feed(in, 25);
      WatchedSource source(feed);
      try {
        sweep_fault_source(kr.table, index, source, opts);
        ADD_FAILURE() << "bad feed accepted";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
        EXPECT_EQ(std::string(e.what()).find("line 302"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(source.reads_after_throw(), 0u);
    }
  }
}

// A list of known size runs on no more workers than it has chunks: one
// shorter than a chunk stays on the calling thread.
TEST(FaultStream, ShortKnownSizeSourceRunsOnOneWorker) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(43);
  const auto sets = random_fault_sets(25, 3, 50, rng);
  FaultSweepOptions opts;
  opts.exec.threads = 8;
  opts.exec.batch_size = 64;
  const auto summary = sweep_fault_sets(kr.table, index, sets, opts);
  EXPECT_EQ(summary.total_sets, 50u);
  EXPECT_EQ(summary.executor.workers, 1u);
  EXPECT_EQ(summary.executor.chunks_local, 1u);

  opts.exec.batch_size = 16;  // four chunks: four workers of the eight
  EXPECT_EQ(sweep_fault_sets(kr.table, index, sets, opts).executor.workers,
            4u);
}

// A stream reports from its executor workers, under the merge lock: calls
// never overlap, the merged count strictly increases, and the last call
// reports the whole stream.
TEST(FaultStream, ProgressFiresBetweenBatches) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(3);
  const auto sets = random_fault_sets(25, 3, 64, rng);

  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::uint64_t> reported;
    std::atomic<bool> inside{false};
    std::atomic<bool> overlapped{false};
    FaultSweepOptions opts;
    opts.exec.threads = threads;
    opts.exec.batch_size = 8;
    opts.exec.progress_every = 10;
    opts.on_progress = [&](const FaultSweepProgress& p) {
      if (inside.exchange(true)) overlapped = true;
      reported.push_back(p.sets_done);
      std::this_thread::yield();
      inside = false;
    };
    ExplicitListSource source(sets);
    const auto summary = sweep_fault_source(kr.table, index, source, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(summary.total_sets, 64u);
    EXPECT_FALSE(overlapped);
    ASSERT_FALSE(reported.empty());
    for (std::size_t i = 1; i < reported.size(); ++i) {
      EXPECT_GT(reported[i], reported[i - 1]);  // strictly increasing
    }
    EXPECT_EQ(reported.back(), 64u);  // the final batch reports completion
  }
}

// A bounded unit reports from its executor workers, under the merge lock:
// the merged count strictly increases and stays within the unit, and no
// two calls overlap.
TEST(FaultStream, ProgressOnBoundedUnitsIsSerialized) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  for (const UnitKind kind : {UnitKind::kSweepGray, UnitKind::kSweepSampled}) {
    for (const unsigned threads : {1u, 4u}) {
      UnitSpec unit;
      unit.kind = kind;
      unit.f = 3;
      unit.seed = 5;
      unit.end = kind == UnitKind::kSweepGray ? binomial(25, 3) : 300;
      unit.exec = {.threads = threads, .batch_size = 1, .progress_every = 7};
      std::vector<std::uint64_t> reported;
      std::atomic<bool> inside{false};
      std::atomic<bool> overlapped{false};
      const SweepPartial partial =
          execute_unit(index, unit, [&](const FaultSweepProgress& p) {
            if (inside.exchange(true)) overlapped = true;
            reported.push_back(p.sets_done);
            std::this_thread::yield();
            inside = false;
          });
      const std::string what = std::string(unit_kind_name(kind)) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(partial.sets, unit.end) << what;
      EXPECT_FALSE(overlapped) << what;
      ASSERT_GE(reported.size(), 2u) << what;
      for (std::size_t i = 1; i < reported.size(); ++i) {
        EXPECT_GT(reported[i], reported[i - 1]) << what;
      }
      EXPECT_LE(reported.back(), unit.end) << what;
    }
  }
}

// --- the Gray fast path vs the generic engine --------------------------------

// THE acceptance differential: the revolving-door sweep and the generic
// engine fed the same enumeration must agree bit for bit on every
// aggregate, across the three construction families, f in {1, 2, 3}, and
// threads {1, 2, 8}. Without delivery the Gray sweep runs packed lane
// blocks; delivery (which needs each set's surviving graph, so every set
// is evaluated on its own) runs at f = 1 everywhere and at f = 2 on the
// kernel table.
TEST(FaultStream, GraySweepMatchesGenericEngine) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const std::size_t n = entry.g.num_nodes();
    for (std::size_t f : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      FaultSweepOptions base_opts;
      const bool delivery =
          f == 1 || (f == 2 && entry.name == "kernel/torus");
      base_opts.delivery_pairs = delivery ? 4 : 0;
      base_opts.seed = 99;
      base_opts.exec.batch_size = 64;  // force several batches at f >= 2

      ExhaustiveGraySource ref_source(n, f);
      const auto rebuild =
          sweep_fault_source(entry.table, index, ref_source, base_opts);
      ASSERT_EQ(rebuild.total_sets, binomial(n, f)) << entry.name;

      for (unsigned threads : kThreadCounts) {
        FaultSweepOptions opts = base_opts;
        opts.exec.threads = threads;
        const auto gray = sweep_exhaustive_gray(entry.table, index, f, opts);
        SCOPED_TRACE(entry.name + " f=" + std::to_string(f) +
                     " threads=" + std::to_string(threads));
        expect_same_aggregates(gray, rebuild);
      }
    }
  }
}

TEST(FaultStream, GraySweepWorstWitnessIsConsistent) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto summary = sweep_exhaustive_gray(kr.table, index, 2, {});
  // The unranked witness must actually attain the reported worst diameter.
  SrgScratch scratch(index);
  EXPECT_EQ(scratch.evaluate(summary.worst_faults).diameter,
            summary.worst_diameter);
  EXPECT_EQ(gray_subset_rank(std::vector<std::size_t>(
                summary.worst_faults.begin(), summary.worst_faults.end())),
            summary.worst_index);
}

// --- the check's exhaustive unit ---------------------------------------------

// The Gray sweep unit over every rank, as check_tolerance plans it.
SweepPartial gray_unit(const SrgIndex& index, std::size_t f,
                       std::uint64_t begin, std::uint64_t end,
                       const ExecPolicy& exec = {}) {
  UnitSpec unit;
  unit.kind = UnitKind::kSweepGray;
  unit.f = static_cast<std::uint32_t>(f);
  unit.begin = begin;
  unit.end = end;
  unit.exec = exec;
  return execute_unit(index, unit);
}

TEST(AdversaryGray, MatchesLexicographicGroundTruth) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const std::uint64_t total = binomial(25, 2);

  const auto serial = lex_worst_faults(25, 2, [&](const std::vector<Node>& f) {
    SrgScratch scratch(index);
    return scratch.surviving_diameter(f);
  });

  SweepPartial base;
  bool have_base = false;
  for (unsigned threads : kThreadCounts) {
    const auto gray =
        gray_unit(index, 2, 0, total, ExecPolicy{.threads = threads});
    // Same ground truth (the max over all sets) and the same coverage...
    EXPECT_EQ(gray.worst_diameter, serial.worst_diameter);
    EXPECT_EQ(gray.sets, serial.evaluations);
    // ...the witness may be a different set (gray vs lex order), but must
    // attain the max.
    SrgScratch scratch(index);
    EXPECT_EQ(scratch.surviving_diameter(gray.worst_faults),
              gray.worst_diameter);
    // And the gray path itself is thread-count-invariant.
    if (!have_base) {
      base = gray;
      have_base = true;
      continue;
    }
    EXPECT_EQ(gray.worst_faults, base.worst_faults);
    EXPECT_EQ(gray.worst_diameter, base.worst_diameter);
    EXPECT_EQ(gray.sets, base.sets);
  }
}

TEST(AdversaryGray, DegenerateBudgets) {
  const auto gg = cycle_graph(8);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  // f = 0: exactly one (empty) evaluation.
  const auto none = gray_unit(index, 0, 0, 1);
  EXPECT_EQ(none.sets, 1u);
  EXPECT_TRUE(none.worst_faults.empty());
  // f = n: the single everyone-faulty set has diameter 0 by convention.
  const auto all = gray_unit(index, 8, 0, 1);
  EXPECT_EQ(all.sets, 1u);
  EXPECT_EQ(all.worst_diameter, 0u);
  // An empty window evaluates nothing.
  EXPECT_EQ(gray_unit(index, 2, 5, 5).sets, 0u);
}

}  // namespace
}  // namespace ftr
