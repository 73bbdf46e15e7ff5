#include "routing/serialization.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/mapped_file.hpp"
#include "common/parse.hpp"
#include "common/pipe_io.hpp"
#include "common/rng.hpp"
#include "fault/fault_gen.hpp"
#include "graph/graph_io.hpp"

namespace ftr {

void save_routing_table(const RoutingTable& table, std::ostream& os) {
  const bool bidirectional = table.mode() == RoutingMode::kBidirectional;
  if (table.max_routes_per_pair() == 1) {
    os << "ftroute-table v1 " << table.num_nodes();
  } else {
    os << "ftroute-multitable v1 " << table.num_nodes() << ' '
       << table.max_routes_per_pair();
  }
  os << ' ' << (bidirectional ? "bidirectional" : "unidirectional") << '\n';
  table.for_each_view([&](Node x, Node y, PathView path) {
    // Bidirectional tables store mirrored pairs; emit each path once, from
    // the pair with the smaller source.
    if (bidirectional && x > y) return;
    os << "route";
    for (Node v : path) os << ' ' << v;
    os << '\n';
  });
  os << "end\n";
}

std::string routing_table_to_string(const RoutingTable& table) {
  std::ostringstream os;
  save_routing_table(table, os);
  return os.str();
}

void save_routing_table_file(const RoutingTable& table,
                             const std::string& path) {
  const std::string text = routing_table_to_string(table);
  write_file_exact(path, text.data(), text.size());
}

namespace {

// A text table header: `ftroute-table v1 <n> <mode>` (cap 1) or
// `ftroute-multitable v1 <n> <cap> <mode>`. n is bounded by kMaxTextNodes
// before the caller sizes a table by it.
struct TextTableHeader {
  std::size_t n = 0;
  std::size_t cap = 1;
  bool bidirectional = true;
};

TextTableHeader read_table_header(std::istream& is, std::size_t& line_no) {
  std::string line;
  FTR_EXPECTS_MSG(next_data_line(is, line, line_no),
                  "missing 'ftroute-table' header");
  const auto tok = split_tokens(line);
  const bool has_cap = !tok.empty() && tok[0] == "ftroute-multitable";
  FTR_EXPECTS_MSG(tok.size() == (has_cap ? 5u : 4u) &&
                      (has_cap || tok[0] == "ftroute-table") &&
                      tok[1] == "v1",
                  "line " << line_no << ": bad header line: '" << line << "'");
  TextTableHeader h;
  h.n = static_cast<std::size_t>(
      parse_header_count(tok[2], kMaxTextNodes, "node count", line_no));
  FTR_EXPECTS_MSG(h.n >= 2, "table needs at least 2 nodes");
  if (has_cap) {
    const auto cap = parse_u64(tok[3]);
    FTR_EXPECTS_MSG(cap.has_value(), "line " << line_no << ": bad route cap '"
                                             << tok[3] << "'");
    h.cap = static_cast<std::size_t>(*cap);
  }
  const std::string_view mode = tok.back();
  FTR_EXPECTS_MSG(mode == "bidirectional" || mode == "unidirectional",
                  "line " << line_no << ": bad mode '" << mode << "'");
  h.bidirectional = mode == "bidirectional";
  return h;
}

// Hands every route line up to `end` to `add`, then insists that only blank
// and comment lines follow. A route line holds only node ids after the tag,
// and every token must parse strictly (parse_u64): a word, stray
// punctuation, or an overflowing numeral means the file is damaged, not
// that the route simply ended.
template <typename AddRoute>
void read_route_lines(std::istream& is, std::size_t n, std::size_t& line_no,
                      const AddRoute& add) {
  std::string line;
  for (;;) {
    FTR_EXPECTS_MSG(next_data_line(is, line, line_no),
                    "missing 'end' terminator");
    const auto tok = split_tokens(line);
    if (tok.size() == 1 && tok[0] == "end") break;
    FTR_EXPECTS_MSG(tok[0] == "route", "line " << line_no
                                               << ": unexpected line: '"
                                               << line << "'");
    Path path;
    for (std::size_t i = 1; i < tok.size(); ++i) {
      const auto v = parse_u64(tok[i]);
      FTR_EXPECTS_MSG(v.has_value(), "line " << line_no << ": bad token '"
                                             << tok[i] << "' in route line");
      FTR_EXPECTS_MSG(*v < n, "line " << line_no << ": node " << *v
                                      << " out of range");
      path.push_back(static_cast<Node>(*v));
    }
    FTR_EXPECTS_MSG(path.size() >= 2,
                    "line " << line_no << ": truncated route: '" << line << "'");
    add(path);
  }
  expect_nothing_after_end(is, line_no);
}

}  // namespace

RoutingTable load_routing_table(std::istream& is) {
  std::size_t line_no = 0;
  const auto h = read_table_header(is, line_no);
  RouteTableBuilder table(h.n,
                          h.bidirectional ? RoutingMode::kBidirectional
                                          : RoutingMode::kUnidirectional,
                          h.cap);
  read_route_lines(is, h.n, line_no,
                   [&](const Path& path) { table.set_route(path); });
  return std::move(table).build();
}

RoutingTable routing_table_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_routing_table(is);
}

// --- binary table snapshots --------------------------------------------------

// Private-member bridge between the snapshot container and the structures it
// persists. Befriended by Graph and RoutingTable so the loader can place
// FlatArrays (owned or mapped aliases) directly into them without widening
// any public API.
struct SnapshotAccess {
  static const FlatArray<std::uint32_t>& graph_offsets(const Graph& g) {
    return g.offsets_;
  }
  static const FlatArray<Node>& graph_targets(const Graph& g) {
    return g.targets_;
  }
  static Graph make_graph(FlatArray<std::uint32_t> offsets,
                          FlatArray<Node> targets, std::size_t num_edges) {
    Graph g;
    g.offsets_ = std::move(offsets);
    g.targets_ = std::move(targets);
    g.num_edges_ = num_edges;
    return g;
  }

  static const FlatArray<Node>& table_arena(const RoutingTable& t) {
    return t.arena_;
  }
  static const FlatArray<std::uint32_t>& table_route_off(
      const RoutingTable& t) {
    return t.route_off_;
  }
  static RoutingTable make_table(std::size_t n, RoutingMode mode,
                                 FlatArray<Node> arena,
                                 FlatArray<std::uint32_t> route_off) {
    return RoutingTable(n, mode, /*cap=*/1, std::move(arena),
                        std::move(route_off));
  }
};

namespace {

constexpr char kSnapMagic[8] = {'F', 'T', 'R', 'S', 'N', 'A', 'P', '\0'};
constexpr std::uint32_t kSnapVersion = 3;
constexpr std::uint32_t kSnapEndianTag = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = 48;
constexpr std::uint64_t kDirEntryBytes = 32;
// The load-side alignment CONTRACT is 16 bytes (what mmap'd views assume for
// their element types); the writer over-aligns to 64 so sections start on
// cache-line/SIMD-register boundaries. Offsets are self-describing, so files
// written at the old 16-byte alignment still load.
constexpr std::uint64_t kSectionAlign = 16;
constexpr std::uint64_t kSectionWriteAlign = 64;
constexpr std::uint32_t kMaxSections = 64;

// Fixed-width scalar block; everything not naturally an array rides here.
struct SnapshotMeta {
  std::uint64_t graph_num_nodes;
  std::uint64_t graph_num_edges;
  std::uint64_t table_num_nodes;
  std::uint32_t table_mode;
  std::uint32_t plan_construction;
  std::uint32_t plan_guaranteed_diameter;
  std::uint32_t plan_tolerated_faults;
};
static_assert(sizeof(SnapshotMeta) == 40, "meta block layout is pinned");
static_assert(std::is_trivially_copyable_v<SnapshotMeta>);

// Canonical section order. A v3 file contains exactly these, in this order:
// the inputs G and rho, and the plan. Everything derived from them (each
// route's pair, the pairs by source, the SrgIndex, the route-load ranking)
// is rebuilt on load.
constexpr const char* kSectionOrder[] = {"meta",   "plan",   "goff",
                                         "gtgt",   "tarena", "troff"};
constexpr std::size_t kNumSections = std::size(kSectionOrder);

// FNV-1a folded over 64-bit little-endian words (zero-padded tail, length
// mixed in last) — 8 bytes per multiply instead of 1, since checksum speed
// is on the snapshot-load critical path.
std::uint64_t checksum_bytes(const unsigned char* p, std::uint64_t n) {
  constexpr std::uint64_t kOffset = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = (h ^ w) * kPrime;
  }
  return (h ^ n) * kPrime;
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
void put_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

void expect_little_endian_host() {
  FTR_EXPECTS_MSG(std::endian::native == std::endian::little,
                  "snapshot files are little-endian; this host is not");
}

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

struct RawSection {
  std::string tag;
  const unsigned char* data = nullptr;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

// Header + directory validation shared by both loaders and the directory
// introspection entry point. Validation order is deliberate: magic /
// version / endianness first, then structural header fields, then PER-ENTRY
// tag and bounds checks (so a corrupted section length is reported as that
// section's error), then the directory checksum, then — when asked — every
// payload checksum. Throws ContractViolation naming the file and, where one
// exists, the offending section.
std::vector<RawSection> validate_container(const std::string& path,
                                           const unsigned char* base,
                                           std::uint64_t size,
                                           bool verify_payload_checksums) {
  FTR_EXPECTS_MSG(size >= kHeaderBytes,
                  "snapshot '" << path << "': truncated — " << size
                               << " bytes is smaller than the "
                               << kHeaderBytes << "-byte header");
  FTR_EXPECTS_MSG(std::memcmp(base, kSnapMagic, sizeof(kSnapMagic)) == 0,
                  "snapshot '" << path
                               << "': not a ftroute snapshot (bad magic)");
  const std::uint32_t version = get_u32(base + 8);
  FTR_EXPECTS_MSG(version == kSnapVersion,
                  "snapshot '" << path << "': format version " << version
                               << " unsupported (this build reads v"
                               << kSnapVersion << ")");
  FTR_EXPECTS_MSG(get_u32(base + 12) == kSnapEndianTag,
                  "snapshot '" << path << "': endianness mismatch");
  const std::uint32_t count = get_u32(base + 16);
  FTR_EXPECTS_MSG(count >= 1 && count <= kMaxSections,
                  "snapshot '" << path << "': implausible section count "
                               << count);
  const std::uint64_t recorded_size = get_u64(base + 24);
  FTR_EXPECTS_MSG(recorded_size == size,
                  "snapshot '" << path << "': truncated or padded — header"
                               << " records " << recorded_size
                               << " bytes, file has " << size);
  const std::uint64_t dir_bytes = count * kDirEntryBytes;
  FTR_EXPECTS_MSG(kHeaderBytes + dir_bytes <= size,
                  "snapshot '" << path
                               << "': truncated inside the directory");

  const unsigned char* dir = base + kHeaderBytes;
  std::vector<RawSection> sections(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* e = dir + i * kDirEntryBytes;
    FTR_EXPECTS_MSG(e[7] == 0 && e[0] != 0,
                    "snapshot '" << path << "': directory entry " << i
                                 << " has a malformed tag");
    RawSection& s = sections[i];
    s.tag = reinterpret_cast<const char*>(e);
    s.data = nullptr;  // set below once bounds are known good
    s.offset = get_u64(e + 8);
    s.length = get_u64(e + 16);
    s.checksum = get_u64(e + 24);
    FTR_EXPECTS_MSG(s.offset % kSectionAlign == 0,
                    "snapshot '" << path << "' section '" << s.tag
                                 << "': misaligned offset " << s.offset);
    FTR_EXPECTS_MSG(
        s.offset >= kHeaderBytes + dir_bytes && s.offset <= size,
        "snapshot '" << path << "' section '" << s.tag << "': offset "
                     << s.offset << " out of bounds (file has " << size
                     << " bytes)");
    FTR_EXPECTS_MSG(s.length <= size - s.offset,
                    "snapshot '" << path << "' section '" << s.tag
                                 << "': length " << s.length
                                 << " overflows the file (offset " << s.offset
                                 << ", file " << size << " bytes)");
    s.data = base + s.offset;
  }
  const std::uint64_t dir_sum = checksum_bytes(dir, dir_bytes);
  FTR_EXPECTS_MSG(dir_sum == get_u64(base + 32),
                  "snapshot '" << path << "': directory checksum mismatch");
  if (verify_payload_checksums) {
    for (const RawSection& s : sections) {
      const std::uint64_t sum = checksum_bytes(base + s.offset, s.length);
      FTR_EXPECTS_MSG(sum == s.checksum,
                      "snapshot '" << path << "' section '" << s.tag
                                   << "': checksum mismatch (stored "
                                   << s.checksum << ", computed " << sum
                                   << ")");
    }
  }
  return sections;
}

// Section payload -> FlatArray: an alias into the mapping, which `owner`
// keeps alive (an empty section is an empty owned array). Payload offsets
// are 16-byte aligned and the mapping is page-aligned, so the aliased
// pointer is always suitably aligned for T.
template <typename T>
FlatArray<T> take_array(const std::string& path, const RawSection& s,
                        const std::shared_ptr<const void>& owner) {
  FTR_EXPECTS_MSG(s.length % sizeof(T) == 0,
                  "snapshot '" << path << "' section '" << s.tag
                               << "': length " << s.length
                               << " is not a multiple of the element size "
                               << sizeof(T));
  const std::size_t count = s.length / sizeof(T);
  const T* src = reinterpret_cast<const T*>(s.data);
  if (count == 0) return FlatArray<T>();
  return FlatArray<T>::aliased(src, count, owner);
}

// Bounds / monotonicity / id-range validation of the stored arrays, run on
// every load before anything is derived from them. The checksums catch
// storage corruption; these checks keep a crafted or buggy file from
// producing out-of-bounds indexing in the derivations or at serve time.
// Cost is one linear pass per array.
#define FTR_SNAP_CHECK(cond, tag, msg)                                   \
  FTR_EXPECTS_MSG(cond, "snapshot '" << path << "' section '" << (tag)  \
                                     << "': " << msg)

void validate_structure(const std::string& path, const SnapshotMeta& meta,
                        const FlatArray<std::uint32_t>& goff,
                        const FlatArray<Node>& gtgt,
                        const FlatArray<Node>& arena,
                        const FlatArray<std::uint32_t>& troff) {
  const std::uint64_t n = meta.table_num_nodes;
  FTR_SNAP_CHECK(n >= 2 && n <= kMaxNodes, "meta",
                 "implausible node count " << n);
  FTR_SNAP_CHECK(meta.graph_num_nodes == n, "meta",
                 "graph covers " << meta.graph_num_nodes
                                 << " nodes but the table covers " << n);
  FTR_SNAP_CHECK(meta.table_mode <= 1, "meta",
                 "unknown routing mode " << meta.table_mode);
  FTR_SNAP_CHECK(
      meta.plan_construction <=
          static_cast<std::uint32_t>(Construction::kKernel),
      "meta", "unknown plan construction " << meta.plan_construction);

  // Graph CSR.
  FTR_SNAP_CHECK(goff.size() == n + 1, "goff",
                 "expected " << n + 1 << " row offsets, found "
                             << goff.size());
  FTR_SNAP_CHECK(goff[0] == 0, "goff", "first row offset is not 0");
  for (std::size_t i = 0; i + 1 < goff.size(); ++i) {
    FTR_SNAP_CHECK(goff[i] <= goff[i + 1], "goff",
                   "row offsets not monotone at node " << i);
  }
  FTR_SNAP_CHECK(goff.back() == gtgt.size(), "goff",
                 "row offsets end at " << goff.back() << " but 'gtgt' holds "
                                       << gtgt.size() << " targets");
  FTR_SNAP_CHECK(meta.graph_num_edges * 2 == gtgt.size(), "meta",
                 "edge count " << meta.graph_num_edges
                               << " disagrees with the target array");
  for (std::size_t i = 0; i < gtgt.size(); ++i) {
    FTR_SNAP_CHECK(gtgt[i] < n, "gtgt",
                   "target " << gtgt[i] << " out of range at index " << i);
  }

  // Routing table: route r has nodes tarena[troff[r] .. troff[r + 1]), and
  // its pair is its first and last node.
  for (std::size_t i = 0; i < arena.size(); ++i) {
    FTR_SNAP_CHECK(arena[i] < n, "tarena",
                   "node " << arena[i] << " out of range at index " << i);
  }
  FTR_SNAP_CHECK(!troff.empty() && troff[0] == 0, "troff",
                 "first route offset is not 0");
  const std::size_t routes = troff.size() - 1;
  for (std::size_t r = 0; r < routes; ++r) {
    FTR_SNAP_CHECK(troff[r] <= troff[r + 1], "troff",
                   "route offsets not monotone at route " << r);
    FTR_SNAP_CHECK(troff[r + 1] - troff[r] >= 2, "troff",
                   "route " << r << " spans fewer than 2 nodes");
  }
  FTR_SNAP_CHECK(troff.back() == arena.size(), "troff",
                 "route offsets end at " << troff.back()
                                         << " but 'tarena' holds "
                                         << arena.size() << " nodes");
  for (std::size_t r = 0; r < routes; ++r) {
    FTR_SNAP_CHECK(arena[troff[r]] != arena[troff[r + 1] - 1], "tarena",
                   "route " << r << " routes node " << arena[troff[r]]
                            << " to itself");
  }
}

#undef FTR_SNAP_CHECK

}  // namespace

TableSnapshot make_table_snapshot(Graph graph, RoutingTable table,
                                  Plan plan) {
  FTR_EXPECTS_MSG(graph.num_nodes() == table.num_nodes(),
                  "snapshot materials disagree: graph covers "
                      << graph.num_nodes() << " nodes, table covers "
                      << table.num_nodes());
  TableSnapshot snap;
  snap.index = std::make_shared<const SrgIndex>(table);
  snap.route_load_ranking = nodes_by_route_load(table);
  snap.graph = std::move(graph);
  snap.table = std::move(table);
  snap.plan = std::move(plan);
  return snap;
}

void save_table_snapshot(const TableSnapshot& snapshot, std::ostream& os) {
  expect_little_endian_host();
  const Graph& g = snapshot.graph;
  const RoutingTable& t = snapshot.table;
  FTR_EXPECTS_MSG(g.num_nodes() == t.num_nodes(),
                  "snapshot materials disagree on the node count");
  if (t.num_pairs() != t.num_routes()) {
    // The format stores one route per pair and no cap; name the first pair
    // that holds more.
    t.for_each_view([&t](Node x, Node y, PathView) {
      const std::size_t held = t.routes(x, y).size();
      FTR_EXPECTS_MSG(held == 1, "cannot snapshot a multirouting: pair ("
                                     << x << "," << y << ") holds " << held
                                     << " routes");
    });
  }

  SnapshotMeta meta{};
  meta.graph_num_nodes = g.num_nodes();
  meta.graph_num_edges = g.num_edges();
  meta.table_num_nodes = t.num_nodes();
  meta.table_mode = static_cast<std::uint32_t>(t.mode());
  meta.plan_construction =
      static_cast<std::uint32_t>(snapshot.plan.construction);
  meta.plan_guaranteed_diameter = snapshot.plan.guaranteed_diameter;
  meta.plan_tolerated_faults = snapshot.plan.tolerated_faults;

  struct SectionOut {
    const char* tag;
    const unsigned char* data;
    std::uint64_t length;
  };
  std::vector<SectionOut> sections;
  sections.reserve(kNumSections);
  auto add = [&](const char* tag, const void* data, std::uint64_t bytes) {
    sections.push_back(
        {tag, static_cast<const unsigned char*>(data), bytes});
  };
  auto add_arr = [&](const char* tag, const auto& arr) {
    add(tag, arr.data(), arr.size() * sizeof(*arr.data()));
  };
  add("meta", &meta, sizeof(meta));
  add("plan", snapshot.plan.rationale.data(),
      snapshot.plan.rationale.size());
  add_arr("goff", SnapshotAccess::graph_offsets(g));
  add_arr("gtgt", SnapshotAccess::graph_targets(g));
  add_arr("tarena", SnapshotAccess::table_arena(t));
  add_arr("troff", SnapshotAccess::table_route_off(t));
  FTR_ASSERT(sections.size() == kNumSections);

  const std::uint64_t dir_bytes = sections.size() * kDirEntryBytes;
  std::vector<std::uint64_t> offsets(sections.size());
  std::uint64_t cursor = kHeaderBytes + dir_bytes;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = align_up(cursor, kSectionWriteAlign);
    offsets[i] = cursor;
    cursor += sections[i].length;
  }
  const std::uint64_t file_size = cursor;

  std::vector<unsigned char> dir(dir_bytes, 0);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    unsigned char* e = dir.data() + i * kDirEntryBytes;
    const std::size_t tag_len = std::strlen(sections[i].tag);
    FTR_ASSERT(tag_len >= 1 && tag_len <= 7);
    std::memcpy(e, sections[i].tag, tag_len);
    put_u64(e + 8, offsets[i]);
    put_u64(e + 16, sections[i].length);
    put_u64(e + 24, checksum_bytes(sections[i].data, sections[i].length));
  }

  unsigned char header[kHeaderBytes] = {};
  std::memcpy(header, kSnapMagic, sizeof(kSnapMagic));
  put_u32(header + 8, kSnapVersion);
  put_u32(header + 12, kSnapEndianTag);
  put_u32(header + 16, static_cast<std::uint32_t>(sections.size()));
  put_u64(header + 24, file_size);
  put_u64(header + 32, checksum_bytes(dir.data(), dir.size()));

  os.write(reinterpret_cast<const char*>(header), sizeof(header));
  os.write(reinterpret_cast<const char*>(dir.data()),
           static_cast<std::streamsize>(dir.size()));
  static constexpr char kPad[kSectionWriteAlign] = {};
  std::uint64_t written = kHeaderBytes + dir_bytes;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    os.write(kPad, static_cast<std::streamsize>(offsets[i] - written));
    if (sections[i].length != 0) {
      os.write(reinterpret_cast<const char*>(sections[i].data),
               static_cast<std::streamsize>(sections[i].length));
    }
    written = offsets[i] + sections[i].length;
  }
  FTR_EXPECTS_MSG(os.good(), "snapshot write failed");
}

std::string table_snapshot_to_string(const TableSnapshot& snapshot) {
  std::ostringstream os(std::ios::binary);
  save_table_snapshot(snapshot, os);
  return std::move(os).str();
}

void save_table_snapshot_file(const TableSnapshot& snapshot,
                              const std::string& path) {
  // Serialize in memory, then one full-write with loud failure: a partial
  // snapshot on disk would fail its checksums at load time, but failing at
  // WRITE time (and unlinking the stub) is the honest contract.
  const std::string bytes = table_snapshot_to_string(snapshot);
  write_file_exact(path, bytes.data(), bytes.size());
}

namespace {

// The shared back half of every loader: validate the mapped container,
// then build the graph and the table over it. The aliased arrays share
// ownership of `map`, which keeps it alive.
SnapshotInputs parse_snapshot(const std::string& path,
                              std::shared_ptr<const MappedFile> map) {
  const auto* base = reinterpret_cast<const unsigned char*>(map->data());
  const std::uint64_t size = map->size();
  const std::vector<RawSection> secs =
      validate_container(path, base, size, /*verify_payload_checksums=*/true);
  FTR_EXPECTS_MSG(secs.size() == kNumSections,
                  "snapshot '" << path << "': expected " << kNumSections
                               << " sections, found " << secs.size());
  for (std::size_t i = 0; i < kNumSections; ++i) {
    FTR_EXPECTS_MSG(secs[i].tag == kSectionOrder[i],
                    "snapshot '" << path << "': section " << i << " is '"
                                 << secs[i].tag << "', expected '"
                                 << kSectionOrder[i] << "'");
  }
  auto sec = [&](const char* tag) -> const RawSection& {
    const auto it =
        std::find(kSectionOrder, kSectionOrder + kNumSections,
                  std::string_view(tag));
    return secs[static_cast<std::size_t>(it - kSectionOrder)];
  };

  const RawSection& meta_sec = sec("meta");
  FTR_EXPECTS_MSG(meta_sec.length == sizeof(SnapshotMeta),
                  "snapshot '" << path << "' section 'meta': expected "
                               << sizeof(SnapshotMeta) << " bytes, found "
                               << meta_sec.length);
  SnapshotMeta meta;
  std::memcpy(&meta, meta_sec.data, sizeof(meta));

  const std::shared_ptr<const void> owner = std::move(map);
  auto goff = take_array<std::uint32_t>(path, sec("goff"), owner);
  auto gtgt = take_array<Node>(path, sec("gtgt"), owner);
  auto arena = take_array<Node>(path, sec("tarena"), owner);
  auto troff = take_array<std::uint32_t>(path, sec("troff"), owner);
  validate_structure(path, meta, goff, gtgt, arena, troff);

  Plan plan;
  plan.construction = static_cast<Construction>(meta.plan_construction);
  plan.guaranteed_diameter = meta.plan_guaranteed_diameter;
  plan.tolerated_faults = meta.plan_tolerated_faults;
  const RawSection& plan_sec = sec("plan");
  plan.rationale.assign(reinterpret_cast<const char*>(plan_sec.data),
                        static_cast<std::size_t>(plan_sec.length));
  try {
    // Derives what built tables derive, and refuses a pair that two routes
    // join.
    return {SnapshotAccess::make_graph(
                std::move(goff), std::move(gtgt),
                static_cast<std::size_t>(meta.graph_num_edges)),
            SnapshotAccess::make_table(
                static_cast<std::size_t>(meta.table_num_nodes),
                static_cast<RoutingMode>(meta.table_mode), std::move(arena),
                std::move(troff)),
            std::move(plan)};
  } catch (const ContractViolation& e) {
    throw ContractViolation("snapshot '" + path + "': " + e.what());
  }
}

// A graph or routes file given on its own: either text format or a
// snapshot (sniffed by magic), of which only the one half is kept.
Graph load_graph_file(const std::string& path) {
  if (is_snapshot_file(path)) {
    return std::move(load_snapshot_inputs_file(path).graph);
  }
  std::ifstream f(path);
  if (!f) throw ContractViolation("cannot open graph file '" + path + "'");
  return load_graph(f);
}

RoutingTable load_routes_file(const std::string& path) {
  if (is_snapshot_file(path)) {
    return std::move(load_snapshot_inputs_file(path).table);
  }
  std::ifstream f(path);
  if (!f) throw ContractViolation("cannot open table file '" + path + "'");
  return load_routing_table(f);
}

}  // namespace

TableSnapshot make_table_snapshot(SnapshotInputs in) {
  return make_table_snapshot(std::move(in.graph), std::move(in.table),
                             std::move(in.plan));
}

SnapshotInputs load_snapshot_inputs_file(const std::string& path) {
  expect_little_endian_host();
  return parse_snapshot(path, MappedFile::open(path));
}

TableSnapshot load_table_snapshot_file(const std::string& path) {
  return make_table_snapshot(load_snapshot_inputs_file(path));
}

TableSnapshot load_table_snapshot_fd(int fd, const std::string& name) {
  expect_little_endian_host();
  return make_table_snapshot(
      parse_snapshot(name, MappedFile::from_fd(fd, name)));
}

SnapshotInputs load_table_inputs(const TableSpec& spec) {
  SnapshotInputs in;
  if (!spec.snapshot_file.empty()) {
    in = load_snapshot_inputs_file(spec.snapshot_file);
  } else {
    in.graph = load_graph_file(spec.graph_file);
    if (!spec.table_file.empty()) {
      in.table = load_routes_file(spec.table_file);
    } else {
      Rng rng(spec.build_seed);
      auto planned = build_planned_routing(in.graph, std::nullopt, rng);
      in.table = std::move(planned.table);
      in.plan = std::move(planned.plan);
    }
  }
  in.table.validate(in.graph);
  return in;
}

bool is_snapshot_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[sizeof(kSnapMagic)];
  is.read(magic, sizeof(magic));
  return is.gcount() == sizeof(magic) &&
         std::memcmp(magic, kSnapMagic, sizeof(magic)) == 0;
}

std::uint64_t ftr_checksum64(const void* data, std::uint64_t n) {
  return checksum_bytes(static_cast<const unsigned char*>(data), n);
}

SnapshotInfo read_snapshot_directory(const std::string& path) {
  const std::vector<unsigned char> buf = read_file_exact(path);
  const std::vector<RawSection> secs = validate_container(
      path, buf.data(), buf.size(), /*verify_payload_checksums=*/false);
  SnapshotInfo info;
  info.version = get_u32(buf.data() + 8);
  info.file_size = buf.size();
  info.sections.reserve(secs.size());
  for (const RawSection& s : secs) {
    info.sections.push_back({s.tag, s.offset, s.length, s.checksum});
  }
  return info;
}

}  // namespace ftr
