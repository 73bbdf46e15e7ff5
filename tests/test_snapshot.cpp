// Binary table snapshots: round-trip fidelity of the zero-copy mmap load
// path, the full negative-path matrix (truncation, bit flips, wrong magic,
// future version, section-length overflow — every failure a
// ContractViolation naming the file and, where one exists, the offending
// section), registry snapshot-on-miss, and the serve differential
// (snapshot-backed output bit-identical to build-on-miss).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli_support.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/graph_io.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/serialization.hpp"
#include "serve/request_router.hpp"
#include "serve/table_registry.hpp"

namespace ftr {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// The shared fixture materials: a torus kernel routing with a plan whose
// every field is non-default, so round-trip comparisons can't pass by
// accident of zero-initialization.
TableSnapshot test_snapshot() {
  const auto gg = torus_graph(4, 4);
  auto table = build_kernel_routing(gg.graph, 2).table;
  Plan plan;
  plan.construction = Construction::kKernel;
  plan.guaranteed_diameter = 9;
  plan.tolerated_faults = 2;
  plan.rationale = "test fixture: torus kernel routing";
  return make_table_snapshot(gg.graph, std::move(table), plan);
}

std::string write_test_snapshot(const std::string& name) {
  const std::string path = temp_path(name);
  save_table_snapshot_file(test_snapshot(), path);
  return path;
}

std::string graph_text(const Graph& g) {
  std::ostringstream os;
  save_graph(g, os);
  return os.str();
}

// Functional SRG equality: same shape and identical evaluations over a
// spread of fault sets (diameter, survivor count, surviving arcs).
void expect_index_equivalent(const SrgIndex& a, const SrgIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_routes(), b.num_routes());
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  SrgScratch sa(a);
  SrgScratch sb(b);
  const std::vector<std::vector<Node>> fault_sets = {
      {}, {0}, {5}, {3, 11}, {1, 6, 12}, {0, 7, 8, 15}};
  for (const auto& faults : fault_sets) {
    const auto ra = sa.evaluate(faults);
    const auto rb = sb.evaluate(faults);
    EXPECT_EQ(ra.diameter, rb.diameter);
    EXPECT_EQ(ra.survivors, rb.survivors);
    EXPECT_EQ(ra.arcs, rb.arcs);
  }
}

void expect_round_trip(const TableSnapshot& orig, const TableSnapshot& got) {
  EXPECT_EQ(graph_text(got.graph), graph_text(orig.graph));
  EXPECT_EQ(routing_table_to_string(got.table),
            routing_table_to_string(orig.table));
  EXPECT_EQ(got.plan.construction, orig.plan.construction);
  EXPECT_EQ(got.plan.guaranteed_diameter, orig.plan.guaranteed_diameter);
  EXPECT_EQ(got.plan.tolerated_faults, orig.plan.tolerated_faults);
  EXPECT_EQ(got.plan.rationale, orig.plan.rationale);
  EXPECT_EQ(got.route_load_ranking, orig.route_load_ranking);
  ASSERT_NE(got.index, nullptr);
  expect_index_equivalent(*orig.index, *got.index);
}

TEST(Snapshot, RoundTripMmap) {
  const auto orig = test_snapshot();
  const std::string path = temp_path("roundtrip_mmap.snap");
  save_table_snapshot_file(orig, path);
  const auto got = load_table_snapshot_file(path);
  expect_round_trip(orig, got);
  // The mapped structures account real bytes, so byte-budgeted caches
  // charge mapped tables like resident ones.
  EXPECT_GT(got.graph.memory_bytes(), 0u);
  EXPECT_GT(got.table.memory_bytes(), 0u);
  EXPECT_GT(got.index->memory_bytes(), 0u);
}

TEST(Snapshot, MmapTableSurvivesFileOutliving) {
  // The mapping is shared-ownership: structures moved out of the load
  // result keep it alive with no load-scope lifetime coupling.
  const std::string path = write_test_snapshot("mmap_lifetime.snap");
  RoutingTable table = [&] {
    auto snap = load_table_snapshot_file(path);
    return std::move(snap.table);  // snapshot (and its owner handle) dies
  }();
  bool found = false;
  for (Node x = 0; x < table.num_nodes() && !found; ++x) {
    for (Node y = 0; y < table.num_nodes() && !found; ++y) {
      if (x == y || !table.has_route(x, y)) continue;
      const auto view = table.route(x, y);
      EXPECT_GE(view.size(), 2u);
      EXPECT_EQ(view.front(), x);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Snapshot, DirectoryIntrospection) {
  const std::string path = write_test_snapshot("introspect.snap");
  const auto info = read_snapshot_directory(path);
  EXPECT_EQ(info.version, 3u);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(info.file_size, static_cast<std::uint64_t>(f.tellg()));
  // v3 stores the inputs only: the graph, the table's routes and the
  // plan; the loader derives everything else.
  const std::vector<std::string> expected = {"meta", "plan",   "goff",
                                             "gtgt", "tarena", "troff"};
  std::vector<std::string> tags;
  for (const auto& s : info.sections) tags.push_back(s.tag);
  EXPECT_EQ(tags, expected);
  for (const auto& s : info.sections) {
    EXPECT_EQ(s.offset % 16, 0u) << s.tag;
    EXPECT_LE(s.offset + s.length, info.file_size) << s.tag;
  }
}

// The planner's torus(10,10) table at seed 42 — what `ftroute gen torus 10
// 10 | ftroute snapshot --seed 42` writes.
TableSnapshot planner_torus_snapshot() {
  const auto gg = torus_graph(10, 10);
  Rng rng(42);
  auto planned = build_planned_routing(gg.graph, std::nullopt, rng);
  return make_table_snapshot(gg.graph, std::move(planned.table),
                             std::move(planned.plan));
}

TableSnapshot unidirectional_snapshot() {
  const auto cycle = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kUnidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({2, 1, 0, 5});
  builder.set_route({3, 4});
  const RoutingTable table = std::move(builder).build();
  return make_table_snapshot(cycle.graph, std::move(table));
}

// A file holds only the inputs, and a load derives the rest as
// make_table_snapshot does, so saving a loaded snapshot writes the same
// bytes.
TEST(Snapshot, ResaveIsByteIdentical) {
  const TableSnapshot planned = planner_torus_snapshot();
  const std::string planned_bytes = table_snapshot_to_string(planned);
  EXPECT_LE(planned_bytes.size(), 260000u);
  for (const TableSnapshot& snap : {planned, unidirectional_snapshot()}) {
    const std::string path = temp_path("resave.snap");
    save_table_snapshot_file(snap, path);
    EXPECT_EQ(table_snapshot_to_string(load_table_snapshot_file(path)),
              table_snapshot_to_string(snap));
  }
}

// Every TableSnapshot comes from make_table_snapshot, so a loaded one
// equals the one built in memory: every SrgIndex array, the ranking, and
// the route of every ordered pair.
TEST(Snapshot, LoadedSnapshotMatchesMakeTableSnapshot) {
  for (const TableSnapshot& made :
       {planner_torus_snapshot(), unidirectional_snapshot(), test_snapshot()}) {
    const std::string path = temp_path("matches_make.snap");
    save_table_snapshot_file(made, path);
    const TableSnapshot got = load_table_snapshot_file(path);
    ASSERT_NE(got.index, nullptr);
    EXPECT_TRUE(*got.index == *made.index);
    EXPECT_EQ(got.route_load_ranking, made.route_load_ranking);
    EXPECT_EQ(graph_text(got.graph), graph_text(made.graph));
    EXPECT_EQ(got.table.num_pairs(), made.table.num_pairs());
    const std::size_t n = made.table.num_nodes();
    ASSERT_EQ(got.table.num_nodes(), n);
    for (Node x = 0; x < n; ++x) {
      for (Node y = 0; y < n; ++y) {
        const PathView want = made.table.route(x, y);
        const PathView have = got.table.route(x, y);
        ASSERT_EQ(have.null(), want.null()) << x << " -> " << y;
        EXPECT_EQ(have.to_path(), want.to_path()) << x << " -> " << y;
      }
    }
    // The inputs alone: the same graph, table and plan, nothing derived.
    const SnapshotInputs in = load_snapshot_inputs_file(path);
    EXPECT_EQ(graph_text(in.graph), graph_text(made.graph));
    EXPECT_EQ(routing_table_to_string(in.table),
              routing_table_to_string(made.table));
    EXPECT_EQ(in.plan.rationale, made.plan.rationale);
    EXPECT_TRUE(SrgIndex(in.table) == *made.index);
  }
}

TEST(Snapshot, SniffsSnapshotFiles) {
  const std::string path = write_test_snapshot("sniff.snap");
  EXPECT_TRUE(is_snapshot_file(path));
  const std::string text = temp_path("sniff.ftg");
  std::ofstream(text) << "ftroute-graph v1 not a snapshot\n";
  EXPECT_FALSE(is_snapshot_file(text));
  EXPECT_FALSE(is_snapshot_file(temp_path("sniff_missing.snap")));
}

// --- negative paths ---------------------------------------------------------

// Overwrites `count` bytes at `offset` with `byte`.
void patch_file(const std::string& path, std::uint64_t offset,
                unsigned char byte, std::size_t count = 1) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  for (std::size_t i = 0; i < count; ++i) {
    f.put(static_cast<char>(byte));
  }
  ASSERT_TRUE(f.good());
}

void truncate_file(const std::string& path, std::uint64_t keep) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), keep);
  bytes.resize(keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The load must reject the file with a message naming it and containing
// `expect`.
void expect_load_rejects(const std::string& path, const std::string& expect) {
  try {
    (void)load_table_snapshot_file(path);
    FAIL() << "load accepted a corrupted snapshot";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(expect), std::string::npos) << msg;
  }
}

TEST(Snapshot, RejectsWrongMagic) {
  const std::string path = write_test_snapshot("bad_magic.snap");
  patch_file(path, 0, 'X');
  expect_load_rejects(path, "bad magic");
}

TEST(Snapshot, RejectsNonSnapshotFile) {
  const std::string path = temp_path("not_a_snapshot.snap");
  std::ofstream(path, std::ios::binary)
      << "this is long enough to clear the header-size check but is text "
         "all the way down, nothing like a snapshot container";
  expect_load_rejects(path, "bad magic");
}

TEST(Snapshot, RejectsFutureFormatVersion) {
  const std::string path = write_test_snapshot("future_version.snap");
  patch_file(path, 8, 4);  // version field: u32 at byte 8
  expect_load_rejects(path, "format version 4 unsupported");
}

// v2 files also stored arrays derived from the routes; they are build
// artifacts, so a v3 reader refuses them rather than converting.
TEST(Snapshot, RejectsV2FormatVersion) {
  const std::string path = write_test_snapshot("v2_version.snap");
  patch_file(path, 8, 2);
  expect_load_rejects(path,
                      "format version 2 unsupported (this build reads v3)");
}

TEST(Snapshot, RejectsTruncationBelowHeader) {
  const std::string path = write_test_snapshot("trunc_header.snap");
  truncate_file(path, 20);
  expect_load_rejects(path, "truncated");
}

TEST(Snapshot, RejectsTruncationMidFile) {
  const std::string path = write_test_snapshot("trunc_mid.snap");
  const auto info = read_snapshot_directory(path);
  truncate_file(path, info.file_size - 100);
  expect_load_rejects(path, "truncated");
}

TEST(Snapshot, RejectsBitFlippedSectionNamingIt) {
  // Flip one byte inside a payload section located via the directory; the
  // error must name that section, not just fail vaguely.
  const std::string path = write_test_snapshot("bitflip.snap");
  const auto info = read_snapshot_directory(path);
  const SnapshotSectionInfo* target = nullptr;
  for (const auto& s : info.sections) {
    if (s.tag == "tarena") target = &s;
  }
  ASSERT_NE(target, nullptr);
  ASSERT_GT(target->length, 0u);
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(target->offset));
  const unsigned char original = static_cast<unsigned char>(in.get());
  in.close();
  patch_file(path, target->offset, original ^ 0x40u);
  expect_load_rejects(path, "section 'tarena': checksum mismatch");
}

TEST(Snapshot, RejectsSectionLengthOverflowNamingIt) {
  // Blow up a directory entry's length field (u64 at entry offset + 16).
  // The per-entry bounds check runs BEFORE the directory checksum
  // comparison precisely so this reports the poisoned section by name.
  const std::string path = write_test_snapshot("len_overflow.snap");
  patch_file(path, /*header*/ 48 + /*entry 4 = tarena*/ 4 * 32 + 16, 0xff,
             8);
  expect_load_rejects(path, "section 'tarena': length");
}

TEST(Snapshot, RejectsDirectoryTampering) {
  // A subtler directory edit (bump a stored checksum) that keeps all
  // bounds plausible must still die on the directory checksum.
  const std::string path = write_test_snapshot("dir_tamper.snap");
  patch_file(path, 48 + 2 * 32 + 24, 0x5a);
  expect_load_rejects(path, "directory checksum mismatch");
}

// A hostile WRITER (not storage rot): overwrites the u32 at byte `at` of
// section `tag` with 0xffffffff (or XORs it with `flip`, when given), then
// re-checksums the section and the directory, so only structural validation
// can catch the damage.
void poison_u32_under_valid_checksums(
    const std::string& path, const std::string& tag, std::uint64_t at,
    std::optional<std::uint32_t> flip = std::nullopt) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const auto info = read_snapshot_directory(path);
  const SnapshotSectionInfo* sec = nullptr;
  std::size_t sec_index = 0;
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    if (info.sections[i].tag == tag) {
      sec = &info.sections[i];
      sec_index = i;
    }
  }
  ASSERT_NE(sec, nullptr) << tag;
  ASSERT_GE(sec->length, at + 4) << tag;
  std::uint32_t word = 0xffffffffu;
  if (flip) {
    std::memcpy(&word, bytes.data() + sec->offset + at, 4);
    word ^= *flip;
  }
  std::memcpy(bytes.data() + sec->offset + at, &word, 4);
  // Recompute the section checksum exactly as the writer does: FNV-1a over
  // 64-bit LE words, zero-padded tail, length mixed last.
  const auto checksum = [&](std::uint64_t off, std::uint64_t n) {
    std::uint64_t h = 14695981039346656037ull;
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + off + i, 8);
      h = (h ^ w) * kPrime;
    }
    if (i < n) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + off + i, n - i);
      h = (h ^ w) * kPrime;
    }
    return (h ^ n) * kPrime;
  };
  const std::uint64_t entry_off = 48 + sec_index * 32;
  const std::uint64_t section_sum = checksum(sec->offset, sec->length);
  std::memcpy(bytes.data() + entry_off + 24, &section_sum, 8);
  const std::uint64_t dir_sum = checksum(48, info.sections.size() * 32);
  std::memcpy(bytes.data() + 32, &dir_sum, 8);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, RejectsStructuralCorruptionUnderValidChecksums) {
  // offsets_[1] (u32 at +4): 0xffffffff breaks monotonicity and bounds.
  const std::string path = write_test_snapshot("crafted.snap");
  poison_u32_under_valid_checksums(path, "goff", 4);
  expect_load_rejects(path, "section 'goff'");
}

TEST(Snapshot, RejectsRouteOffsetsNotStartingAtZero) {
  const std::string path = write_test_snapshot("crafted_troff0.snap");
  poison_u32_under_valid_checksums(path, "troff", 0);
  expect_load_rejects(path, "section 'troff': first route offset is not 0");
}

TEST(Snapshot, RejectsNonMonotoneRouteOffsets) {
  const std::string path = write_test_snapshot("crafted_troff_mono.snap");
  poison_u32_under_valid_checksums(path, "troff", 4 * 5);
  expect_load_rejects(path,
                      "section 'troff': route offsets not monotone at route 5");
}

TEST(Snapshot, RejectsRouteOffsetsPastTheArena) {
  const std::string path = write_test_snapshot("crafted_troff_end.snap");
  const auto info = read_snapshot_directory(path);
  std::uint64_t troff_bytes = 0;
  for (const auto& s : info.sections) {
    if (s.tag == "troff") troff_bytes = s.length;
  }
  ASSERT_GE(troff_bytes, 8u);
  // The last offset, past every node: still monotone, but off the arena.
  poison_u32_under_valid_checksums(path, "troff", troff_bytes - 4);
  expect_load_rejects(path,
                      "section 'troff': route offsets end at 4294967295");
}

// Snapshot of the unidirectional table {0 -> 1, 0 -> 3} over cycle(4): its
// arena is 0 1 0 3, so the u32 at byte 4 * 3 is route 1's last node.
std::string write_two_route_snapshot(const std::string& name) {
  const auto cycle = cycle_graph(4);
  RouteTableBuilder builder(4, RoutingMode::kUnidirectional);
  builder.set_route({0, 1});
  builder.set_route({0, 3});
  const RoutingTable table = std::move(builder).build();
  const std::string path = temp_path(name);
  save_table_snapshot_file(make_table_snapshot(cycle.graph, table), path);
  return path;
}

// Route 1 rewritten to repeat route 0's pair: every node stays in range
// and every route joins two distinct nodes, so only the SrgIndex built on
// load can see the repeat.
TEST(Snapshot, RejectsPairListedTwice) {
  const std::string path = write_two_route_snapshot("crafted_twice.snap");
  poison_u32_under_valid_checksums(path, "tarena", 4 * 3, /*flip=*/3u ^ 1u);
  expect_load_rejects(path, "ordered pair 0 -> 1 listed twice");
}

// A route's pair is its first and last node, so a route whose ends
// coincide would route a node to itself.
TEST(Snapshot, RejectsRouteWhoseEndsCoincide) {
  const std::string path = write_two_route_snapshot("crafted_self.snap");
  poison_u32_under_valid_checksums(path, "tarena", 4 * 3, /*flip=*/3u);
  expect_load_rejects(path,
                      "section 'tarena': route 1 routes node 0 to itself");
}

// The format stores one route per pair and no cap, so the writer refuses
// a multirouting, naming a pair that holds two routes; one route per pair
// snapshots at any cap. make_table_snapshot itself takes any table, so an
// in-process caller can evaluate a multirouting on its index.
TEST(Snapshot, SaveRefusesParallelRoutesNamingThePair) {
  const auto cycle = cycle_graph(6);
  RouteTableBuilder builder(6, RoutingMode::kUnidirectional, 2);
  builder.set_route({0, 1});
  builder.set_route({0, 1, 2, 3});
  EXPECT_NO_THROW(table_snapshot_to_string(
      make_table_snapshot(cycle.graph, RouteTableBuilder(builder).build())));
  builder.set_route({0, 5, 4, 3});
  const TableSnapshot multi =
      make_table_snapshot(cycle.graph, std::move(builder).build());
  EXPECT_EQ(multi.index->num_routes(), 3u);
  try {
    (void)table_snapshot_to_string(multi);
    FAIL() << "a multirouting was snapshotted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("pair (0,3) holds 2 routes"),
              std::string::npos)
        << e.what();
  }
}

// `check` and `sweep` read text inputs through load_table_inputs: a
// multirouting's text loads, validates and checks exactly like the table in
// process, on both branches of the decision tree.
TEST(Snapshot, LoadTableInputsChecksAMultitableText) {
  const auto gg = petersen_graph();
  const RoutingTable table = build_full_multirouting(gg.graph, 2);
  ASSERT_GT(table.num_routes(), table.num_pairs());
  const std::string graph_path = temp_path("multi_args.ftg");
  const std::string table_path = temp_path("multi_args.ftt");
  {
    std::ofstream g(graph_path);
    save_graph(gg.graph, g);
  }
  save_routing_table_file(table, table_path);
  const TableSnapshot snap = make_table_snapshot(
      load_table_inputs(cli::table_spec_args(graph_path, table_path)));
  for (const std::uint64_t budget : {std::uint64_t{20000}, std::uint64_t{1}}) {
    ToleranceCheckOptions opts;
    opts.exhaustive_budget = budget;
    Rng rng(7);
    const auto want = check_tolerance(table, 2, 3, rng, opts);
    const auto got = check_tolerance(
        *snap.index, 2, 3, Rng(7)(),
        with_route_load_seeds(snap.route_load_ranking, 2, opts));
    SCOPED_TRACE("budget=" + std::to_string(budget));
    EXPECT_EQ(got.exhaustive, budget > 1);
    EXPECT_EQ(got.summary(), want.summary());
    EXPECT_EQ(got.worst_faults, want.worst_faults);
  }
  std::remove(graph_path.c_str());
  std::remove(table_path.c_str());
}

// The fault-free succ/pred rows are not stored: a loaded index
// derives them identical to the table-built one, evaluates every set of up
// to 3 faults exactly as it does (and as the original table's one-shot
// surviving graph says), and charges them in memory_bytes(). The sparse table makes
// the rows (2 * 640 * 10 words) outweigh every other array, so a count
// that left them out would fall short.
TEST(Snapshot, LoadedIndexDerivesBaseRowsAndMatchesEvaluate) {
  const TableSnapshot orig = test_snapshot();
  const std::string path = temp_path("base_rows.snap");
  save_table_snapshot_file(orig, path);
  const auto cycle = cycle_graph(640);
  RouteTableBuilder builder(640, RoutingMode::kBidirectional);
  builder.set_route({0, 1});
  builder.set_route({1, 2});
  const RoutingTable sparse = std::move(builder).build();
  const TableSnapshot sparse_orig = make_table_snapshot(cycle.graph, sparse);
  const std::string sparse_path = temp_path("base_rows_sparse.snap");
  save_table_snapshot_file(sparse_orig, sparse_path);
  const std::size_t row_bytes = 2 * 640 * 10 * sizeof(std::uint64_t);
  EXPECT_GE(sparse_orig.index->memory_bytes(), row_bytes);
  const TableSnapshot got = load_table_snapshot_file(path);
  const SrgIndex& a = *orig.index;
  const SrgIndex& b = *got.index;
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.row_words(), b.row_words());
  std::size_t bits = 0;
  for (Node v = 0; v < a.num_nodes(); ++v) {
    const auto sa = a.succ_row(v);
    const auto sb = b.succ_row(v);
    const auto pa = a.pred_row(v);
    const auto pb = b.pred_row(v);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
        << "succ row " << v;
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "pred row " << v;
    std::size_t in_bits = 0;
    for (std::uint64_t w : pb) in_bits += std::popcount(w);
    EXPECT_EQ(in_bits, b.pairs_into(v).size()) << "node " << v;
    for (std::uint64_t w : sb) bits += std::popcount(w);
  }
  EXPECT_EQ(bits, b.num_pairs());

  SrgScratch sa(a), sb(b);
  for (std::size_t f = 0; f <= 3; ++f) {
    GraySubsetEnumerator e(a.num_nodes(), f);
    for (bool more = e.valid(); more; more = e.advance()) {
      const std::vector<Node> faults(e.current().begin(),
                                     e.current().end());
      const auto ra = sa.evaluate(faults);
      const auto rb = sb.evaluate(faults);
      const Digraph ro = surviving_graph(orig.table, faults);
      EXPECT_EQ(ra.diameter, rb.diameter);
      EXPECT_EQ(ra.survivors, rb.survivors);
      EXPECT_EQ(ra.arcs, rb.arcs);
      EXPECT_EQ(diameter(ro), rb.diameter);
      EXPECT_EQ(ro.num_present(), rb.survivors);
      EXPECT_EQ(ro.num_arcs(), rb.arcs);
    }
  }

  const TableSnapshot sparse_got = load_table_snapshot_file(sparse_path);
  EXPECT_EQ(sparse_got.index->row_words(), 10u);
  EXPECT_GE(sparse_got.index->memory_bytes(), row_bytes);
}

// The in-pair index is not stored: a loaded index derives it identical to
// the table-built one, and the packed kernel (which
// walks it bottom-up) agrees with the table-built index at every width.
TEST(Snapshot, LoadedIndexDerivesInPairsAndMatchesPacked) {
  const TableSnapshot orig = test_snapshot();
  const std::string path = temp_path("in_pairs.snap");
  save_table_snapshot_file(orig, path);
  const TableSnapshot got = load_table_snapshot_file(path);
  const SrgIndex& a = *orig.index;
  const SrgIndex& b = *got.index;
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  std::size_t listed = 0;
  for (Node v = 0; v < a.num_nodes(); ++v) {
    const auto pa = a.pairs_into(v);
    const auto pb = b.pairs_into(v);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "node " << v;
    listed += pb.size();
  }
  EXPECT_EQ(listed, b.num_pairs());
  const std::size_t n = a.num_nodes();
  for (const unsigned width : {64u, 128u, 256u, 512u}) {
    SrgScratch sa(a);
    SrgScratch sb(b);
    sa.set_lane_width(width);
    sb.set_lane_width(width);
    GraySubsetEnumerator ea(n, 3);
    GraySubsetEnumerator eb(n, 3);
    const std::uint64_t total = ea.count();  // C(16, 3) = 560
    SrgScratch::Result ra[512];
    SrgScratch::Result rb[512];
    for (std::uint64_t rank = 0; rank < total;) {
      const auto cnt =
          static_cast<std::size_t>(std::min<std::uint64_t>(width, total - rank));
      sa.evaluate_gray_block(ea, cnt, ra);
      sb.evaluate_gray_block(eb, cnt, rb);
      for (std::size_t i = 0; i < cnt; ++i) {
        SCOPED_TRACE("width=" + std::to_string(width) +
                     " rank=" + std::to_string(rank + i));
        EXPECT_EQ(ra[i].diameter, rb[i].diameter);
        EXPECT_EQ(ra[i].survivors, rb[i].survivors);
        EXPECT_EQ(ra[i].arcs, rb[i].arcs);
      }
      rank += cnt;
      if (rank < total) {
        ASSERT_TRUE(ea.advance());
        ASSERT_TRUE(eb.advance());
      }
    }
  }
}

// --- registry + serving integration -----------------------------------------

TEST(Snapshot, RegistryMaterializesFromSnapshotOnMiss) {
  const std::string path = write_test_snapshot("registry.snap");
  TableRegistry registry;
  TableSpec spec;
  spec.snapshot_file = path;
  registry.define("t", spec);

  const auto handle = registry.acquire("t");
  EXPECT_EQ(registry.stats().snapshot_loads, 1u);
  EXPECT_EQ(registry.stats().builds, 0u);
  EXPECT_EQ(registry.stats().misses, 1u);
  EXPECT_EQ(handle->generation, 1u);
  EXPECT_GT(handle->memory_bytes, 0u);
  ASSERT_NE(handle->index, nullptr);
  EXPECT_EQ(handle->plan.guaranteed_diameter, 9u);
  EXPECT_EQ(handle->route_load_ranking.size(), handle->graph.num_nodes());

  // Warm acquire hits; eviction + re-acquire loads the snapshot again.
  (void)registry.acquire("t");
  EXPECT_EQ(registry.stats().hits, 1u);
  registry.evict_all();
  const auto again = registry.acquire("t");
  EXPECT_EQ(again->generation, 2u);
  EXPECT_EQ(registry.stats().snapshot_loads, 2u);
  EXPECT_EQ(registry.stats().builds, 0u);
}

TEST(Snapshot, RegistryRejectsSnapshotCombinedWithGraph) {
  TableRegistry registry;
  TableSpec spec;
  spec.snapshot_file = "x.snap";
  spec.graph_file = "x.ftg";
  EXPECT_THROW(registry.define("t", spec), ContractViolation);
}

TEST(Snapshot, ManifestSnapshotKeys) {
  const std::string path = write_test_snapshot("manifest.snap");
  TableRegistry registry;
  std::istringstream manifest("table a snapshot=" + path +
                              "\n"
                              "table b snapshot=" +
                              path + "\n");
  EXPECT_EQ(load_table_manifest(manifest, registry), 2u);
  (void)registry.acquire("a");
  (void)registry.acquire("b");
  EXPECT_EQ(registry.stats().snapshot_loads, 2u);

  TableRegistry bad;
  std::istringstream conflict("table c snapshot=x.snap graph=x.ftg\n");
  try {
    load_table_manifest(conflict, bad);
    FAIL() << "manifest accepted snapshot= alongside graph=";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("exclusive"), std::string::npos);
  }

  // The load path is not a manifest key: snapshots always load mmap.
  TableRegistry bad2;
  std::istringstream stray("table d snapshot=" + path +
                           " snapshot_load=bulk\n");
  try {
    load_table_manifest(stray, bad2);
    FAIL() << "manifest accepted snapshot_load=";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'snapshot_load'"),
              std::string::npos);
  }
}

TEST(Snapshot, CorruptSnapshotNeverPoisonsRegistry) {
  const std::string path = write_test_snapshot("poison.snap");
  patch_file(path, 8, 7);  // future version
  TableRegistry registry;
  TableSpec spec;
  spec.snapshot_file = path;
  registry.define("t", spec);
  EXPECT_THROW((void)registry.acquire("t"), ContractViolation);
  // Nothing escaped: no resident entry, no counted materialization, and
  // fixing the file makes the same definition work.
  EXPECT_FALSE(registry.resident("t"));
  EXPECT_EQ(registry.stats().snapshot_loads, 0u);
  EXPECT_EQ(registry.stats().resident_bytes, 0u);
  save_table_snapshot_file(test_snapshot(), path);
  const auto handle = registry.acquire("t");
  EXPECT_EQ(handle->generation, 1u);
  EXPECT_EQ(registry.stats().snapshot_loads, 1u);
}

// A snapshot whose routes do not fit its graph (planner torus(4,4) routes
// over a 16-cycle) passes every checksum and structural check; the table is
// only wrong against its graph. load_table_inputs refuses it, so no verb
// evaluates it, the registry never makes it resident, and serve answers
// each request on it with an error line while the other tables serve on.
TEST(Snapshot, MismatchedSnapshotIsRefusedByTheDoor) {
  const auto ring = cycle_graph(16);
  Rng rng(42);
  auto planned =
      build_planned_routing(torus_graph(4, 4).graph, std::nullopt, rng);
  const std::string bad_path = temp_path("mismatched.snap");
  save_table_snapshot_file(
      make_table_snapshot(ring.graph, std::move(planned.table),
                          std::move(planned.plan)),
      bad_path);
  const auto expect_refused = [](const auto& load) {
    try {
      load();
      FAIL() << "a table that does not fit its graph was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("is not a simple path"),
                std::string::npos)
          << e.what();
    }
  };
  TableSpec bad;
  bad.snapshot_file = bad_path;
  expect_refused([&] { (void)load_table_inputs(bad); });
  expect_refused([&] {
    (void)load_table_inputs(cli::table_spec_args(bad_path, bad_path));
  });

  TableRegistry registry;
  registry.define("bad", bad);
  TableSpec good;
  good.snapshot_file = write_test_snapshot("mismatch_good.snap");
  registry.define("good", good);
  expect_refused([&] { (void)registry.acquire("bad"); });
  EXPECT_FALSE(registry.resident("bad"));
  EXPECT_EQ(registry.stats().snapshot_loads, 0u);

  std::istringstream in(
      "check bad f=1 claimed=9 seed=3\n"
      "check good f=1 claimed=9 seed=3\n"
      "certify bad f=1 claimed=9 seed=1\n"
      "sweep bad f=1 sets=5 seed=2\n"
      "delivery good faults=1,6 pairs=5 seed=2\n");
  IstreamRequestSource source(in);
  std::ostringstream out;
  const auto summary = serve_requests(registry, source, out);
  EXPECT_EQ(summary.requests, 5u);
  EXPECT_EQ(summary.errors, 3u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t answered = 0;
  while (std::getline(lines, line)) {
    ++answered;
    const bool on_bad = line.find(" bad ") != std::string::npos;
    EXPECT_EQ(line.find(" error: ") != std::string::npos, on_bad) << line;
    if (on_bad) {
      EXPECT_NE(line.find("is not a simple path"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(answered, 5u);

  // The failed acquires poisoned nothing: the good table stays resident
  // and serves, and the bad one is still refused.
  EXPECT_TRUE(registry.resident("good"));
  EXPECT_FALSE(registry.resident("bad"));
  EXPECT_EQ(registry.acquire("good")->generation, 1u);
  EXPECT_THROW((void)registry.acquire("bad"), ContractViolation);
  std::remove(bad_path.c_str());
  std::remove(good.snapshot_file.c_str());
}

// The tentpole's correctness bar: served responses are a pure function of
// the table's CONTENTS — a snapshot-backed table answers every request
// byte-identically to the build-on-miss table it was dumped from, at any
// thread count.
TEST(Snapshot, ServeOutputBitIdenticalToBuildOnMiss) {
  const auto gg = torus_graph(4, 4);
  auto built = build_kernel_routing(gg.graph, 2);

  const std::string graph_path = temp_path("serve_diff.ftg");
  const std::string table_path = temp_path("serve_diff.ftt");
  {
    std::ofstream gf(graph_path);
    save_graph(gg.graph, gf);
    std::ofstream tf(table_path);
    save_routing_table(built.table, tf);
  }
  const std::string snap_path = temp_path("serve_diff.snap");
  save_table_snapshot_file(make_table_snapshot(gg.graph, built.table),
                           snap_path);

  const std::string requests =
      "check t f=1 claimed=9 seed=3\n"
      "sweep t f=2 sets=40 seed=11\n"
      "delivery t faults=1,6 pairs=5 seed=2\n"
      "check t f=2 claimed=9 seed=5\n";

  const auto serve_with = [&](const TableSpec& spec, unsigned threads) {
    TableRegistry registry;
    registry.define("t", spec);
    std::istringstream in(requests);
    IstreamRequestSource source(in);
    std::ostringstream out;
    ServeOptions options;
    options.exec.threads = threads;
    const auto summary = serve_requests(registry, source, out, options);
    EXPECT_EQ(summary.errors, 0u);
    return out.str();
  };

  TableSpec build_spec;
  build_spec.graph_file = graph_path;
  build_spec.table_file = table_path;
  const std::string oracle = serve_with(build_spec, 1);
  ASSERT_FALSE(oracle.empty());

  TableSpec snap_spec;
  snap_spec.snapshot_file = snap_path;
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(serve_with(snap_spec, threads), oracle)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ftr
