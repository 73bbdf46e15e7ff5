// The batched query-serving layer. The central contracts:
//
//  * DIFFERENTIAL: every response the router emits equals the one computed
//    by issuing the same request one-at-a-time through the existing
//    single-table paths (check_tolerance / sweep_fault_source /
//    sweep_exhaustive_gray / measure_delivery), formatted per the
//    documented response grammar;
//  * INVARIANCE: serving output is bit-identical for any thread count, any
//    batch size, and any registry byte budget (eviction churn never leaks
//    into stdout);
//  * WARM REGISTRY: a request stream touching T tables costs exactly T
//    SrgIndex constructions, however many requests it carries (the
//    preprocessing-count probe);
//  * request-level failures become deterministic error responses, and the
//    request parser rejects malformed lines with 1-based line numbers.
#include "serve/request_router.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "analysis/neighborhood.hpp"
#include "common/contracts.hpp"
#include "core/planner.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"
#include "sim/network_sim.hpp"

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
// families the sweep determinism suites pin; the serving layer is tested
// over the same spread.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back({"ker", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 3});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"cir", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 3});
  }
  {
    const auto gg = cycle_graph(45);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tri", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

void define_construction_tables(TableRegistry& registry) {
  for (const auto& entry : construction_tables()) {
    registry.define_prebuilt(entry.name, entry.g, entry.table);
  }
}

// The request mix the invariance tests replay: all four kinds, all three
// tables, interleaved so table groups straddle window boundaries.
std::vector<ServeRequest> mixed_requests() {
  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = 100 + round;
    lines.push_back("check ker f=2 claimed=6 seed=" + std::to_string(seed));
    lines.push_back("sweep cir f=3 sets=20 seed=" + std::to_string(seed));
    lines.push_back("delivery tri faults=1,5,9 pairs=4 seed=" +
                    std::to_string(seed));
    lines.push_back("sweep ker f=2 exhaustive seed=" + std::to_string(seed));
    lines.push_back("certify cir f=2 claimed=6 seed=" + std::to_string(seed));
    lines.push_back("delivery ker faults=0,12 pairs=6 seed=" +
                    std::to_string(seed));
  }
  std::vector<ServeRequest> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(parse_request_line(lines[i], i + 1));
  }
  return out;
}

std::string serve_to_string(TableRegistry& registry,
                            const std::vector<ServeRequest>& requests,
                            const ServeOptions& options,
                            ServeSummary* summary_out = nullptr) {
  ExplicitRequestSource source(requests);
  std::ostringstream out;
  const auto summary = serve_requests(registry, source, out, options);
  if (summary_out != nullptr) *summary_out = summary;
  return out.str();
}

std::string join_nodes(const std::vector<Node>& nodes) {
  if (nodes.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out;
}

std::string fmt_diameter(std::uint32_t d) {
  return d == kUnreachable ? "disconnected" : std::to_string(d);
}

TEST(Serve, DifferentialAgainstSingleTablePaths) {
  const auto tables = construction_tables();
  const auto& ker = tables[0];
  const auto& cir = tables[1];

  TableRegistry registry;
  define_construction_tables(registry);

  const std::vector<std::string> lines = {
      "check ker f=2 claimed=6 seed=5",
      "sweep cir f=3 sets=30 seed=9 pairs=4",
      "delivery ker faults=3,7 pairs=5 seed=11",
      "certify cir f=2 claimed=6 seed=13",
      "sweep ker f=2 exhaustive seed=1",
  };
  std::vector<ServeRequest> requests;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    requests.push_back(parse_request_line(lines[i], i + 1));
  }
  const std::string served = serve_to_string(registry, requests, {});

  // The same requests, one at a time, through the single-table layers.
  std::vector<std::string> expected;
  {
    ToleranceCheckOptions opts;
    opts.exec.threads = 1;
    Rng rng(5);
    const auto report = check_tolerance(ker.table, 2, 6, rng, opts);
    expected.push_back("#0 check ker " + report.summary() +
                       " worst=" + join_nodes(report.worst_faults));
  }
  {
    const SrgIndex index(cir.table);
    FaultSweepOptions opts;
    opts.seed = 9;
    opts.delivery_pairs = 4;
    SampledStreamSource source(cir.g.num_nodes(), 3, 30, 9);
    const auto s = sweep_fault_source(cir.table, index, source, opts);
    std::ostringstream os;
    os << "#1 sweep cir sets=" << s.total_sets
       << " worst=" << fmt_diameter(s.worst_diameter)
       << " worst_index=" << s.worst_index
       << " disconnected=" << s.disconnected
       << " worst_set=" << join_nodes(s.worst_faults)
       << " pairs=" << s.pairs_sampled << " delivered=" << s.delivered
       << " avg_route_hops=" << std::fixed << std::setprecision(3)
       << s.avg_route_hops << " max_route_hops=" << s.max_route_hops
       << " max_edge_hops=" << s.max_edge_hops;
    expected.push_back(os.str());
  }
  {
    const SrgIndex index(ker.table);
    SrgScratch scratch(index);
    const std::vector<Node> faults = {3, 7};
    const auto res = scratch.evaluate(faults);
    Rng rng(11);
    const auto d = measure_delivery(scratch, 5, rng);
    std::ostringstream os;
    os << "#2 delivery ker faults=3,7 diameter=" << fmt_diameter(res.diameter)
       << " survivors=" << res.survivors << " arcs=" << res.arcs
       << " pairs=" << d.pairs_sampled << " delivered=" << d.delivered
       << " avg_route_hops=" << std::fixed << std::setprecision(3)
       << d.avg_route_hops << " max_route_hops=" << d.max_route_hops
       << " max_edge_hops=" << d.max_edge_hops;
    expected.push_back(os.str());
  }
  {
    ToleranceCheckOptions opts;
    opts.exec.threads = 1;
    Rng rng(13);
    const auto report = check_tolerance(cir.table, 2, 6, rng, opts);
    expected.push_back("#3 certify cir " + report.summary() +
                       " worst=" + join_nodes(report.worst_faults));
  }
  {
    const SrgIndex index(ker.table);
    FaultSweepOptions opts;
    opts.seed = 1;
    const auto s = sweep_exhaustive_gray(ker.table, index, 2, opts);
    std::ostringstream os;
    os << "#4 sweep ker sets=" << s.total_sets
       << " worst=" << fmt_diameter(s.worst_diameter)
       << " worst_index=" << s.worst_index
       << " disconnected=" << s.disconnected
       << " worst_set=" << join_nodes(s.worst_faults);
    expected.push_back(os.str());
  }

  std::string expected_text;
  for (const auto& line : expected) expected_text += line + '\n';
  EXPECT_EQ(served, expected_text);
}

// Reads a request feed the way the CLI does: a malformed line becomes a
// request carrying its parse_error, answered in place.
std::vector<ServeRequest> requests_from_text(const std::string& text) {
  std::istringstream in(text);
  IstreamRequestSource source(in);
  std::vector<ServeRequest> out;
  ServeRequest req;
  while (source.next(req)) out.push_back(req);
  return out;
}

// A skewed stream: one exhaustive sweep and one certify among cheap
// deliveries and sampled sweeps over three tables, with an unknown table
// and a malformed line in the middle (the two error responses).
std::vector<ServeRequest> skewed_requests() {
  std::string text;
  for (int r = 0; r < 14; ++r) {
    const std::string seed = " seed=" + std::to_string(r);
    text += "delivery ker faults=" + std::to_string(r) + ',' +
            std::to_string(r + 7) + " pairs=4" + seed + '\n';
    text += "delivery tri faults=" + std::to_string(2 * r) + " pairs=3" +
            seed + '\n';
    if (r % 3 == 0) text += "sweep cir f=2 sets=12 pairs=2" + seed + '\n';
    if (r == 6) {
      text += "delivery ghost faults=1,2 seed=3\n";
      text += "sweep cir f=2 exhaustive seed=3\n";
      text += "frobnicate what f=1\n";
      text += "certify ker f=2 claimed=6 seed=4\n";
    }
  }
  return requests_from_text(text);
}

TEST(Serve, OutputInvariantAcrossThreadsBatchesAndBudgets) {
  struct Stream {
    const char* name;
    std::vector<ServeRequest> requests;
    std::uint64_t errors;
  };
  for (const Stream& stream : {Stream{"mixed", mixed_requests(), 0},
                               Stream{"skewed", skewed_requests(), 2}}) {
    SCOPED_TRACE(stream.name);
    const auto& requests = stream.requests;
    std::string base;
    ServeSummary base_summary;
    {
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      base = serve_to_string(registry, requests, opts, &base_summary);
    }
    EXPECT_EQ(base_summary.requests, requests.size());
    EXPECT_EQ(base_summary.errors, stream.errors);

    for (const unsigned threads : kThreadCounts) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                      std::size_t{64}}) {
        TableRegistry registry;
        define_construction_tables(registry);
        ServeOptions opts;
        opts.exec.threads = threads;
        opts.exec.batch_size = batch;
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        EXPECT_EQ(serve_to_string(registry, requests, opts), base);
      }
    }

    // An absurd batch_size is clamped, not overflowed: batch * workers
    // wrapping to a zero window would silently drop every request.
    {
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = 8;
      opts.exec.batch_size = std::numeric_limits<std::size_t>::max() / 2;
      ServeSummary summary;
      EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), base);
      EXPECT_EQ(summary.requests, requests.size());
    }

    // A starved byte budget churns the registry (evictions > 0) without
    // changing a single output byte.
    {
      TableRegistryOptions ropts;
      ropts.max_resident_bytes = 1;
      TableRegistry registry(ropts);
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = 2;
      opts.exec.batch_size = 2;
      ServeSummary summary;
      EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), base);
      EXPECT_GT(summary.registry.evictions, 0u);
      EXPECT_GT(summary.registry.builds, 3u);  // rebuilt on readmission
    }
  }
}

// A window acquires its resident tables before its misses, so a miss never
// evicts a table the same window hits. Three same-sized copies of one table
// under a budget of two entries, in windows "A B A | C A B": the second
// window hits A and B, then C's miss evicts the colder of them. Acquiring in
// first-appearance order would miss all three there (C evicts A, A evicts
// B, B evicts C): 5 misses instead of 3.
TEST(Serve, WindowMissesNeverEvictItsOwnHits) {
  const auto ker = construction_tables()[0];
  const auto define = [&](TableRegistry& registry) {
    for (const char* name : {"A", "B", "C"}) {
      registry.define_prebuilt(name, ker.g, ker.table);
    }
  };
  std::size_t entry_bytes = 0;
  {
    TableRegistry probe;
    define(probe);
    entry_bytes = probe.acquire("A")->memory_bytes;
  }
  std::vector<ServeRequest> requests;
  const char* const names[] = {"A", "B", "A", "C", "A", "B"};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    requests.push_back(parse_request_line(
        std::string("delivery ") + names[i] +
            " faults=3,7 pairs=4 seed=" + std::to_string(i),
        i + 1));
  }
  ServeOptions opts;
  opts.exec.threads = 1;
  opts.exec.batch_size = 3;

  std::string unlimited;
  {
    TableRegistry registry;
    define(registry);
    unlimited = serve_to_string(registry, requests, opts);
  }
  TableRegistryOptions ropts;
  ropts.max_resident_bytes = 2 * entry_bytes;
  TableRegistry registry(ropts);
  define(registry);
  ServeSummary summary;
  EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), unlimited);
  EXPECT_EQ(summary.registry.misses, 3u);
  EXPECT_EQ(summary.registry.hits, 2u);
  EXPECT_EQ(summary.registry.evictions, 1u);
}

TEST(Serve, WarmRegistryBuildsEachTableOnce) {
  const auto requests = mixed_requests();
  TableRegistry registry;
  define_construction_tables(registry);

  ServeOptions opts;
  opts.exec.threads = 2;
  opts.exec.batch_size = 2;  // several windows -> several acquires per table
  ServeSummary summary;
  serve_to_string(registry, requests, opts, &summary);

  // 18 requests over 3 tables: exactly 3 preprocessings, the rest hits.
  EXPECT_EQ(summary.requests, requests.size());
  EXPECT_EQ(summary.registry.builds, 3u);
  EXPECT_EQ(summary.registry.misses, 3u);
  EXPECT_GT(summary.registry.hits, 0u);

  // A second stream over the same registry is all-warm: zero new builds.
  ServeSummary again;
  serve_to_string(registry, requests, opts, &again);
  EXPECT_EQ(again.registry.builds, 3u);
}

TEST(Serve, ErrorResponsesAreDeterministicAndCounted) {
  std::vector<ServeRequest> requests;
  requests.push_back(parse_request_line("check ker f=2 claimed=6 seed=5", 1));
  requests.push_back(parse_request_line("check ghost f=1 seed=2", 2));
  requests.push_back(
      parse_request_line("delivery ker faults=999 pairs=2 seed=3", 3));

  std::string base;
  for (const unsigned threads : kThreadCounts) {
    TableRegistry registry;
    define_construction_tables(registry);
    ServeOptions opts;
    opts.exec.threads = threads;
    ServeSummary summary;
    const auto text = serve_to_string(registry, requests, opts, &summary);
    EXPECT_EQ(summary.errors, 2u);
    EXPECT_EQ(summary.checks, 1u);
    EXPECT_NE(text.find("#1 check ghost error:"), std::string::npos) << text;
    EXPECT_NE(text.find("#2 delivery ker error:"), std::string::npos) << text;
    EXPECT_NE(text.find("out of range"), std::string::npos) << text;
    if (base.empty()) {
      base = text;
    } else {
      EXPECT_EQ(text, base) << "threads=" << threads;
    }
  }
}

TEST(Serve, CertifyUsesPlannerClaims) {
  // A planner-built entry carries its (d, f) claims; certify without
  // explicit bounds must verify exactly those.
  const auto gg = torus_graph(5, 5);
  Rng rng(42);
  const auto planned = build_planned_routing(gg.graph, gg.known_connectivity,
                                             rng);
  TableRegistry registry;
  registry.define_prebuilt("planned", gg.graph, planned.table, planned.plan);

  std::vector<ServeRequest> requests;
  requests.push_back(parse_request_line("certify planned seed=3", 1));
  TableRegistry no_claims;
  define_construction_tables(no_claims);
  std::vector<ServeRequest> bare;
  bare.push_back(parse_request_line("certify ker seed=3", 1));

  const auto text = serve_to_string(registry, requests, {});
  std::ostringstream claim;
  claim << "f=" << planned.plan.tolerated_faults << " claimed<="
        << planned.plan.guaranteed_diameter;
  EXPECT_NE(text.find("construction="), std::string::npos) << text;
  EXPECT_NE(text.find(claim.str()), std::string::npos) << text;
  EXPECT_NE(text.find("HOLDS"), std::string::npos) << text;

  // No plan and no explicit bounds: a deterministic error response.
  ServeSummary summary;
  const auto bare_text = serve_to_string(no_claims, bare, {}, &summary);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_NE(bare_text.find("no planner claims"), std::string::npos)
      << bare_text;
}

// The memo tests' tables: the kernel and circular torus(5,5) tables
// (C(25, 2) = 300 sets, exhaustive), a planner-built hypercube(5), where
// C(32, 5) = 201,376 sets is past the check's budget, and a planner-built
// torus(8,8), whose certify (f = 3, C(64, 3) = 41,664 sets) is within it.
void define_memo_tables(TableRegistry& registry) {
  define_construction_tables(registry);
  const auto planned = [](const GeneratedGraph& gg) {
    Rng rng(42);
    auto plan = build_planned_routing(gg.graph, gg.known_connectivity, rng);
    return std::pair(gg.graph, std::move(plan));
  };
  static const auto q5 = planned(hypercube(5));
  static const auto t8 = planned(torus_graph(8, 8));
  registry.define_prebuilt("q5", q5.first, q5.second.table, q5.second.plan);
  registry.define_prebuilt("t8", t8.first, t8.second.table, t8.second.plan);
}

// Each request run alone through execute_request without a runner, on a
// table from an unlimited registry: what the memo must reproduce byte for
// byte.
std::string memo_less_responses(const std::vector<ServeRequest>& requests) {
  TableRegistry registry;
  define_memo_tables(registry);
  std::string out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::optional<SrgScratch> scratch;
    out += '#' + std::to_string(i) + ' ' +
           execute_request(requests[i], *registry.acquire(requests[i].table),
                           scratch) +
           '\n';
  }
  return out;
}

std::vector<ServeRequest> parse_lines(const std::vector<std::string>& lines) {
  std::vector<ServeRequest> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(parse_request_line(lines[i], i + 1));
  }
  return out;
}

// serve computes each exhaustive check/certify sweep once per (table name,
// generation, f) and answers every request asking it from that partial.
// The responses must equal memo-less execution, and the counts must be the
// number of distinct keys, at any threads and batch.
TEST(Serve, ExactVerdictMemoComputesEachKeyOnce) {
  struct MemoStream {
    const char* name;
    std::vector<std::string> lines;
    std::uint64_t computed;
    std::uint64_t hits;
  };
  std::vector<std::string> seeds_only;
  for (int s = 0; s < 8; ++s) {
    seeds_only.push_back("check ker f=2 claimed=6 seed=" + std::to_string(s));
  }
  const MemoStream streams[] = {
      {"repeated checks differing only in seed=", seeds_only, 1, 7},
      {"f=1 and f=2 on one table are two keys",
       {"check ker f=1 claimed=6 seed=1", "check ker f=2 claimed=6 seed=1",
        "check ker f=1 claimed=6 seed=2", "check ker f=2 claimed=6 seed=2"},
       2, 2},
      {"claimed= stays out of the key",
       {"check ker f=2 claimed=2 seed=3", "check ker f=2 claimed=6 seed=4",
        "certify ker f=2 claimed=6 seed=5"},
       1, 2},
      {"certify past the budget is never a hit",
       {"certify q5 f=5 claimed=6 seed=1", "check q5 f=2 claimed=6 seed=1",
        "certify q5 f=5 claimed=6 seed=1", "check q5 f=2 claimed=6 seed=2",
        "certify q5 f=5 claimed=6 seed=2", "check cir f=2 claimed=6 seed=9"},
       2, 1},
  };
  for (const MemoStream& stream : streams) {
    SCOPED_TRACE(stream.name);
    const auto requests = parse_lines(stream.lines);
    const std::string want = memo_less_responses(requests);
    for (const unsigned threads : {1u, 4u}) {
      for (const std::size_t batch : {1u, 16u, 64u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        TableRegistry registry;
        define_memo_tables(registry);
        ServeOptions opts;
        opts.exec.threads = threads;
        opts.exec.batch_size = batch;
        ServeSummary summary;
        EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), want);
        EXPECT_EQ(summary.errors, 0u);
        EXPECT_EQ(summary.exact_computed, stream.computed);
        EXPECT_EQ(summary.exact_hits, stream.hits);
      }
    }
  }
  // One computation answers both claims.
  const auto text = memo_less_responses(parse_lines(
      {"check ker f=2 claimed=2 seed=3", "check ker f=2 claimed=6 seed=4"}));
  EXPECT_NE(text.find("#0 check ker f=2 claimed<=2 measured="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("VIOLATED"), std::string::npos) << text;
  EXPECT_NE(text.find("HOLDS"), std::string::npos) << text;
}

// A rebuilt entry is never answered from its older generation's sweep:
// under a 1-byte budget, alternating tables are re-materialized window by
// window, and every materialization computes its check once.
TEST(Serve, ExactVerdictMemoRecomputesOncePerGeneration) {
  std::vector<std::string> lines;
  for (int r = 0; r < 6; ++r) {
    for (const char* name : {"ker", "cir"}) {
      lines.push_back(std::string("check ") + name +
                      " f=2 claimed=6 seed=" + std::to_string(r));
    }
  }
  const auto requests = parse_lines(lines);
  const std::string want = memo_less_responses(requests);
  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t batch : {1u, 16u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      TableRegistryOptions ropts;
      ropts.max_resident_bytes = 1;
      TableRegistry registry(ropts);
      define_memo_tables(registry);
      ServeOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      ServeSummary summary;
      EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), want);
      EXPECT_EQ(summary.exact_computed, summary.registry.builds);
      EXPECT_EQ(summary.exact_computed + summary.exact_hits, lines.size());
      if (threads * batch == 1) {
        // One request per window: every request re-materializes its table.
        EXPECT_EQ(summary.exact_computed, lines.size());
      }
    }
  }
}

// The budget admits t8's certify (the plan's f = 3, 41,664 sets), so the
// memo answers every t8 certify and check from one sweep. The t8 requests
// and the ker checks each ask one f, so the memo computes exactly one
// sweep per materialization of a table, whatever the threads, batch or
// byte budget, and every response equals a memo-less execute_request.
TEST(Serve, ExactVerdictMemoSweepsAnInBudgetCertifyOnce) {
  const std::vector<std::string> lines = {
      "certify t8 seed=1",
      "check t8 f=3 claimed=6 seed=2",
      "certify t8 seed=3",
      "check t8 f=3 claimed=2 seed=4",
      "check ker f=2 claimed=6 seed=5",
      "certify t8 seed=6",
      "check ker f=2 claimed=2 seed=7",
      "certify t8 claimed=3 seed=8",
      "check ker f=2 claimed=6 seed=9",
      "certify t8 seed=10",
  };
  const auto requests = parse_lines(lines);
  const std::string want = memo_less_responses(requests);
  ASSERT_NE(want.find("certify t8 construction="), std::string::npos) << want;
  ASSERT_NE(want.find("(exhaustive, 41664 sets) HOLDS"), std::string::npos)
      << want;
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const std::size_t batch : {1u, 16u, 64u}) {
      for (const std::size_t budget : {1u, 0u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch) +
                     " max_resident_bytes=" + std::to_string(budget));
        TableRegistryOptions ropts;
        ropts.max_resident_bytes = budget;
        TableRegistry registry(ropts);
        define_memo_tables(registry);
        ServeOptions opts;
        opts.exec.threads = threads;
        opts.exec.batch_size = batch;
        ServeSummary summary;
        EXPECT_EQ(serve_to_string(registry, requests, opts, &summary), want);
        EXPECT_EQ(summary.errors, 0u);
        EXPECT_EQ(summary.exact_computed, summary.registry.builds);
        EXPECT_EQ(summary.exact_computed + summary.exact_hits, lines.size());
        if (budget == 0) {
          EXPECT_EQ(summary.exact_computed, 2u);
        }
      }
    }
  }
}

// A window's new keys are swept on all of its workers before any of its
// requests runs, and the requests only read them. The first stream's first
// window holds several t8 certifies and t8 checks at f = 2 and 3 (two keys
// in one window) next to a q5 certify past the budget (seeded, never a
// key). q5 comes first, so that under a 1-byte budget its window's t8 miss
// evicts it and t8 stays resident from then on: the keys are (t8, 2) and
// (t8, 3) at every budget. In the second stream the certify's key is the
// only one, and deliveries that never read the memo share its window. The
// sweep's chunks are whole blocks of the default 1,024-set batch, and
// neither C(64, 3) = 41,664 nor C(64, 2) = 2,016 is a multiple of 1,024,
// so every key ends in a ragged chunk.
TEST(Serve, ExactVerdictMemoSweepsNewKeysBeforeTheirWindow) {
  struct Stream {
    const char* name;
    std::vector<std::string> lines;
    std::uint64_t computed;
  };
  const Stream streams[] = {
      {"several keys in flight with hits",
       {"certify q5 f=5 claimed=6 seed=1", "certify t8 seed=2",
        "check t8 f=3 claimed=6 seed=3", "check t8 f=2 claimed=6 seed=4",
        "certify t8 seed=5", "check t8 f=2 claimed=2 seed=6",
        "check t8 f=3 claimed=2 seed=7", "certify t8 claimed=3 seed=8",
        "check t8 f=2 claimed=4 seed=9", "certify t8 seed=10",
        "check t8 f=3 claimed=6 seed=11", "certify t8 seed=12"},
       2},
      {"one key next to deliveries",
       {"certify t8 seed=1", "delivery t8 faults=1,9 pairs=4 seed=2",
        "delivery t8 faults=3 pairs=4 seed=3",
        "delivery t8 faults=5,6,7 pairs=4 seed=4"},
       1},
  };
  for (const Stream& stream : streams) {
    SCOPED_TRACE(stream.name);
    const auto requests = parse_lines(stream.lines);
    const std::string want = memo_less_responses(requests);
    ASSERT_NE(want.find("(exhaustive, 41664 sets)"), std::string::npos)
        << want;
    std::uint64_t exact = 0;
    for (const auto& request : requests) {
      exact += request.kind == RequestKind::kCheck ||
               (request.kind == RequestKind::kCertify && request.table == "t8");
    }
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const std::size_t batch : {1u, 16u, 64u}) {
        for (const std::size_t budget : {1u, 0u}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch) +
                       " max_resident_bytes=" + std::to_string(budget));
          TableRegistryOptions ropts;
          ropts.max_resident_bytes = budget;
          TableRegistry registry(ropts);
          define_memo_tables(registry);
          ServeOptions opts;
          opts.exec.threads = threads;
          opts.exec.batch_size = batch;
          ServeSummary summary;
          EXPECT_EQ(serve_to_string(registry, requests, opts, &summary),
                    want);
          EXPECT_EQ(summary.errors, 0u);
          EXPECT_EQ(summary.exact_computed, stream.computed);
          EXPECT_EQ(summary.exact_hits, exact - stream.computed);
          // The executor's chunks are requests; the sweeps run before them.
          EXPECT_EQ(summary.executor.chunks_local, requests.size());
        }
      }
    }
  }
}

TEST(Serve, ParserRejectsMalformedLinesWithLineNumbers) {
  const auto expect_throw_mentioning = [](const std::string& line,
                                          const std::string& fragment) {
    try {
      parse_request_line(line, 7);
      FAIL() << "expected ContractViolation for: " << line;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 7"), std::string::npos) << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  expect_throw_mentioning("frobnicate ker f=1", "unknown request kind");
  expect_throw_mentioning("check", "missing table name");
  expect_throw_mentioning("check ker f=banana", "bad value");
  // 64-bit values that do not fit the 32-bit fields are rejected, never
  // silently wrapped (f=2^32+1 must not be served as f=1).
  expect_throw_mentioning("check ker f=4294967297", "out of range");
  expect_throw_mentioning("delivery ker faults=4294967296", "bad fault list");
  expect_throw_mentioning("check ker frobs=1", "unknown key");
  expect_throw_mentioning("check ker exhaustive", "sweep flag");
  expect_throw_mentioning("delivery ker pairs=2", "faults=<v,v,...>");
  expect_throw_mentioning("delivery ker faults=1,,2", "bad fault list");
  expect_throw_mentioning("sweep ker faults=1,2", "f=<count>");
  // Keys that are meaningless for the kind are rejected, not dropped — a
  // silently ignored claimed= would read as a verification that never ran.
  expect_throw_mentioning("sweep ker claimed=4", "not valid for sweep");
  expect_throw_mentioning("check ker sets=5", "not valid for check");
  expect_throw_mentioning("certify ker pairs=2", "not valid for certify");
  expect_throw_mentioning("delivery ker faults=1 f=2", "not valid for delivery");

  // Well-formed lines round-trip the grammar.
  const auto req =
      parse_request_line("sweep demo f=3 sets=50 seed=9 pairs=2 exhaustive", 4);
  EXPECT_EQ(req.kind, RequestKind::kSweep);
  EXPECT_EQ(req.table, "demo");
  EXPECT_EQ(req.faults, 3u);
  EXPECT_EQ(req.sets, 50u);
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.pairs, 2u);
  EXPECT_TRUE(req.exhaustive);
  EXPECT_EQ(req.line, 4u);

  const auto del = parse_request_line("delivery d faults=4,8,15", 2);
  EXPECT_EQ(del.fault_list, (std::vector<Node>{4, 8, 15}));
  EXPECT_EQ(del.pairs, 4u);  // delivery default
}

TEST(Serve, OversizedSweepIsRejectedNotExecuted) {
  // One astronomically sized sweep must come back as a deterministic error
  // response — never stall its window and the requests batched behind it.
  std::vector<ServeRequest> requests;
  requests.push_back(
      parse_request_line("sweep tri f=15 exhaustive seed=1", 1));  // C(45,15)
  requests.push_back(
      parse_request_line("sweep ker f=2 sets=999999999999 seed=2", 2));
  requests.push_back(parse_request_line("check ker f=1 claimed=6 seed=3", 3));

  TableRegistry registry;
  define_construction_tables(registry);
  ServeSummary summary;
  const auto text = serve_to_string(registry, requests, {}, &summary);
  EXPECT_EQ(summary.errors, 2u);
  EXPECT_EQ(summary.checks, 1u);
  EXPECT_NE(text.find("#0 sweep tri error:"), std::string::npos) << text;
  EXPECT_NE(text.find("#1 sweep ker error:"), std::string::npos) << text;
  EXPECT_NE(text.find("per-request cap"), std::string::npos) << text;
  EXPECT_NE(text.find("#2 check ker"), std::string::npos) << text;
}

// The route walks a request asks for are capped like a sweep's sets: a
// delivery's pairs (n * (n - 1) for pairs=0) and a sweep's sets x pairs,
// whose product is compared without wrapping (10^7 x 2^63 wraps to 0 in 64
// bits). Over-cap requests are answered with an error naming the cap, the
// requests after them are answered, and the cap itself is accepted. The two
// requests at the cap fault all of ker's 25 nodes but at most one, so they
// pass the cap check without walking a route.
TEST(Serve, OversizedDeliveryIsRejectedNotExecuted) {
  const std::vector<std::string> lines = {
      "delivery ker faults=1,2 pairs=18446744073709551615 seed=1",
      "check ker f=1 claimed=6 seed=2",
      "sweep ker f=2 sets=10000000 pairs=9223372036854775808 seed=3",
      "delivery ker faults=1,2 pairs=10000001 seed=4",
      "sweep ker f=2 sets=10 pairs=1000001 seed=5",
      "delivery ker faults=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,"
      "19,20,21,22,23 pairs=10000000 seed=6",
      "sweep ker f=25 exhaustive pairs=10000000 seed=7",
      "delivery ker faults=1,2 pairs=0 seed=8",
  };
  const auto requests = parse_lines(lines);
  std::string base;
  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t batch : {1u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      ServeSummary summary;
      const auto text = serve_to_string(registry, requests, opts, &summary);
      EXPECT_EQ(summary.requests, lines.size());
      EXPECT_EQ(summary.errors, 4u);
      for (const char* rejected :
           {"#0 delivery ker error:", "#2 sweep ker error:",
            "#3 delivery ker error:", "#4 sweep ker error:"}) {
        EXPECT_NE(text.find(rejected), std::string::npos) << text;
      }
      EXPECT_NE(text.find("per-request cap 10000000"), std::string::npos)
          << text;
      EXPECT_NE(text.find("#1 check ker f=1"), std::string::npos) << text;
      EXPECT_NE(text.find("#5 delivery ker faults=0,1,"), std::string::npos)
          << text;
      EXPECT_NE(text.find("#6 sweep ker sets=1 "), std::string::npos) << text;
      EXPECT_NE(text.find("#7 delivery ker faults=1,2 diameter="),
                std::string::npos)
          << text;
      if (base.empty()) {
        base = text;
      } else {
        EXPECT_EQ(text, base);
      }
    }
  }
}

TEST(Serve, MalformedLineMidStreamIsAnsweredNotFatal) {
  // A malformed line must become a deterministic error response AT ITS
  // INDEX — not a throw that cuts the stream after however many windows
  // already flushed (which would make the number of well-formed responses
  // depend on threads * batch_size).
  const std::string feed =
      "check ker f=2 claimed=6 seed=5\n"
      "check cir f=1 claimed=6 seed=6\n"
      "frobnicate what f=1\n"
      "check tri f=1 claimed=6 seed=7\n";

  std::string base;
  for (const unsigned threads : kThreadCounts) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      TableRegistry registry;
      define_construction_tables(registry);
      ServeOptions opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      std::istringstream in(feed);
      IstreamRequestSource source(in);
      std::ostringstream out;
      const auto summary = serve_requests(registry, source, out, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(summary.requests, 4u);  // every line answered
      EXPECT_EQ(summary.errors, 1u);
      EXPECT_EQ(summary.checks, 3u);
      const auto text = out.str();
      EXPECT_NE(text.find("#2 error:"), std::string::npos) << text;
      EXPECT_NE(text.find("unknown request kind"), std::string::npos) << text;
      EXPECT_NE(text.find("#3 check tri"), std::string::npos) << text;
      if (base.empty()) {
        base = text;
      } else {
        EXPECT_EQ(text, base);
      }
    }
  }
}

// An over-long request line is answered with an error at its index and the
// stream goes on; a 4 MiB stream with no newline at all is one such line,
// not an unbounded buffer.
TEST(Serve, OverLongLinesAreAnsweredNotBuffered) {
  const std::string huge(4u << 20, 'x');
  struct Case {
    std::string feed;
    std::uint64_t requests;
    std::string error_at;
  };
  for (const Case& c :
       {Case{"check ker f=1 claimed=6 seed=5\n" + huge +
                 "\ncheck tri f=1 claimed=6 seed=7\n",
             3, "#1 error:"},
        Case{huge, 1, "#0 error:"}}) {
    TableRegistry registry;
    define_construction_tables(registry);
    std::istringstream in(c.feed);
    IstreamRequestSource source(in);
    std::ostringstream out;
    const auto summary = serve_requests(registry, source, out, {});
    const auto text = out.str();
    EXPECT_EQ(summary.requests, c.requests);
    EXPECT_EQ(summary.errors, 1u);
    EXPECT_NE(text.find(c.error_at), std::string::npos) << text;
    EXPECT_NE(text.find("is longer than"), std::string::npos) << text;
    EXPECT_LT(text.size(), std::size_t{4096});  // the line is not echoed
    if (c.requests == 3) {
      EXPECT_NE(text.find("#2 check tri"), std::string::npos) << text;
    }
  }
}

TEST(Serve, IstreamSourceSkipsCommentsAndCountsLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "check a f=1 seed=2\n"
      "   \t  \n"
      "sweep b f=2 sets=5  # trailing comment\n");
  IstreamRequestSource source(in);
  ServeRequest req;
  ASSERT_TRUE(source.next(req));
  EXPECT_EQ(req.kind, RequestKind::kCheck);
  EXPECT_EQ(req.line, 3u);
  ASSERT_TRUE(source.next(req));
  EXPECT_EQ(req.kind, RequestKind::kSweep);
  EXPECT_EQ(req.table, "b");
  EXPECT_EQ(req.line, 5u);
  EXPECT_FALSE(source.next(req));
}

}  // namespace
}  // namespace ftr
