// Route-table persistence. The paper's deployment model computes routing
// tables once, offline, and distributes them; this module provides both
// hand-off formats:
//
//  * the stable TEXT formats below (human-readable, diff-able, the
//    portability oracle), and
//  * the versioned, checksummed BINARY SNAPSHOT — the inputs a serving
//    replica needs ({Graph CSR, RoutingTable route arrays, Plan}) in one
//    sectioned container that it maps and aliases in place (zero-copy
//    mmap) instead of re-running the planner; the rest of a TableSnapshot
//    is derived on load.
//
// Text format (line-oriented; '#' starts a comment that runs to the end of
// its line), one saver and one loader with two headers:
//   ftroute-table v1 <num_nodes> <bidirectional|unidirectional>
//   ftroute-multitable v1 <num_nodes> <cap> <bidirectional|unidirectional>
//   route <n0> <n1> ... <nk>          # one per stored route
//   end
// A table with the default cap of one route per pair is written with the
// first header, any other cap (0 = none) with the second; the loader reads
// either. Routes are written in the table's pair-major order, and
// bidirectional tables write each path once (from the pair with the
// smaller source); load reconstructs the mirror.
// The loader is strict: data after `end`, extra header tokens, a node count
// above kMaxTextNodes, non-numeric junk inside a route line, routes with fewer
// than 2 nodes, and lines longer than kMaxLineBytes are all rejected loudly,
// naming the line.
//
// Binary snapshot container (all fields little-endian, fixed width):
//   header   — magic "FTRSNAP\0", format version, endian tag, section
//              count, total file size, directory checksum
//   directory — one {tag[8], offset, length, checksum} entry per section;
//              payload offsets are 16-byte aligned so a mmap'd file can be
//              aliased in place by any section's element type
//   sections — each flat POD array once, plus a fixed-width meta block and
//              the plan rationale text. v3 holds exactly these 6, in order:
//                meta plan            scalars, plan rationale
//                goff gtgt            graph CSR
//                tarena troff         route nodes, per-route offsets
//              That is G and rho, nothing derived: 256,676 B for the
//              planner torus(10,10) (seed 42). A load builds the table
//              over the mapped routes, which derives each route's pair from
//              its first and last node and each source's pairs sorted by
//              target, exactly as RouteTableBuilder::build() does, and
//              returns make_table_snapshot(graph, table, plan), which
//              builds the SrgIndex (sharing the table's arrays) and the
//              route-load ranking. load_snapshot_inputs_file() stops
//              before make_table_snapshot. Saving a loaded snapshot writes
//              the same bytes.
//
// One door: load_table_inputs(TableSpec) is how every CLI verb and the
// serving registry turn files (text or snapshot) or a planner seed into a
// table, and the one place a table is validated against its graph
// (RoutingTable::validate). Only the forked sweep workers load around it,
// mapping bytes their coordinator already let through the door.
// Versioning policy: accept-same, refuse-other — a v3 reader loads exactly
// v3 files and rejects any other version (older ones included: snapshots
// are build artifacts, regenerated with `ftroute snapshot`) with a
// ContractViolation naming the file. Every load validates the directory
// and per-section checksums, then the structure — the graph CSR (offsets
// from 0, monotone, ending at the target count; targets in range), route
// nodes in range, route offsets (from 0, monotone, >= 2 nodes per route,
// ending at the arena size), and no route from a node to itself — before
// anything is derived; a pair that two routes join is refused while the
// table is built. A corrupted file never yields a partially-valid table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

/// The container's checksum — FNV-1a folded over 64-bit little-endian
/// words (zero-padded tail, length mixed in last) — exported so the
/// distributed wire format frames messages with the same hash the snapshot
/// sections use.
std::uint64_t ftr_checksum64(const void* data, std::uint64_t n);

/// Writes the table to a stream in the v1 text format (either header).
void save_routing_table(const RoutingTable& table, std::ostream& os);

/// Full-write file form (pipe_io::write_file_exact underneath): a partial
/// write — disk full, signal mid-write — throws and unlinks instead of
/// leaving a silently truncated table behind.
void save_routing_table_file(const RoutingTable& table,
                             const std::string& path);

/// Serializes to a string (convenience over save_routing_table).
std::string routing_table_to_string(const RoutingTable& table);

/// Parses a v1 text table of either header; the multitable header's cap
/// becomes the table's. Throws ContractViolation on malformed input (see
/// the strictness list above).
RoutingTable load_routing_table(std::istream& is);

RoutingTable routing_table_from_string(const std::string& text);

// --- binary table snapshots --------------------------------------------------

/// A table with everything the evaluators precompute from it; a
/// registry entry (ServedTable) is one plus its name and accounting. Every
/// TableSnapshot comes from make_table_snapshot, the loaders included.
struct TableSnapshot {
  Graph graph;
  RoutingTable table;
  std::shared_ptr<const SrgIndex> index;
  Plan plan;  // rationale travels too; {0, 0} claims for file-loaded tables
  std::vector<Node> route_load_ranking;  // busiest-first hill-climber seed
};

/// A table's inputs: the graph, the table derived from its routes and
/// nothing else (no SrgIndex, no ranking), and the plan ({0, 0} claims
/// unless a planner built the routes or a snapshot stored them).
struct SnapshotInputs {
  Graph graph;
  RoutingTable table;
  Plan plan;
};

/// Derives the precomputed members (SrgIndex, route-load ranking) from the
/// materials, for any table (a multirouting included); graph/table node
/// counts must match. `plan` is stored as-is. The snapshot loaders end
/// here too, so a loaded snapshot equals the one built in memory.
TableSnapshot make_table_snapshot(Graph graph, RoutingTable table,
                                  Plan plan = {});
TableSnapshot make_table_snapshot(SnapshotInputs in);

/// Writes the sectioned binary container: the graph, the table's route
/// arrays and the plan. The stream must be binary-mode. The table must
/// hold one route per pair (the format has no cap): a multirouting is
/// refused with a ContractViolation naming a pair that holds more.
void save_table_snapshot(const TableSnapshot& snapshot, std::ostream& os);
void save_table_snapshot_file(const TableSnapshot& snapshot,
                              const std::string& path);

/// Serializes the container to a byte string — the fd-passed payload a
/// sweep coordinator writes into an unlinked temp file for forked workers.
std::string table_snapshot_to_string(const TableSnapshot& snapshot);

/// Where a table comes from. Exactly one of graph_file / snapshot_file is
/// set: a snapshot holds the graph, the routes and the plan; a graph file
/// (text or snapshot) takes its routes from table_file (text or snapshot)
/// or, when that is empty, from the planner seeded with build_seed.
struct TableSpec {
  std::string graph_file;
  /// Empty = build the routing via the planner instead of loading one.
  std::string table_file;
  /// Planner seed when table_file is empty.
  std::uint64_t build_seed = 42;
  /// Binary snapshot to materialize from (exclusive with the fields above).
  std::string snapshot_file;
};

/// The one door through which files or a planner seed become a table: it
/// reads or builds the inputs the spec names, then validates the table
/// against its graph (RoutingTable::validate: every route a simple path of
/// the graph, mirrored when bidirectional, within the cap). Every CLI verb
/// and the serving registry acquire their tables here; callers that need
/// the index pass the result to make_table_snapshot. Throws
/// ContractViolation on an unreadable file, malformed input or a table
/// that does not fit its graph, so nothing unvalidated escapes.
SnapshotInputs load_table_inputs(const TableSpec& spec);

/// A snapshot file's stored inputs (checksums and structure checked, the
/// routes not yet validated against the graph): what load_table_inputs
/// reads a snapshot through.
SnapshotInputs load_snapshot_inputs_file(const std::string& path);

/// Loads a snapshot file by mapping it: checksums are validated against
/// the mapping, then the stored arrays are aliased in place — no copies,
/// and the mapping stays alive (shared ownership) for as long as any
/// loaded structure does — and the rest is derived (make_table_snapshot).
/// memory_bytes() of an aliased array reports its mapped extent, so
/// byte-accounted caches charge mapped tables like resident ones. Throws
/// ContractViolation naming the file (and the offending section, where one
/// exists) on wrong magic, other format version, truncation, checksum
/// mismatch, or structural corruption — partially-valid state never
/// escapes. The routes are NOT validated against the graph: these two
/// loaders serve the forked sweep workers, which map the very bytes their
/// coordinator already passed through load_table_inputs. Everything else
/// loads through load_table_inputs.
TableSnapshot load_table_snapshot_file(const std::string& path);

/// Loads a snapshot from an already-open descriptor (e.g. an unlinked temp
/// file inherited by a forked worker — no pathname exists), mapped like
/// load_table_snapshot_file(). Never consumes, closes, or seeks `fd`, so
/// any number of forked processes can load from ONE shared file description
/// without offset races. `name` labels error messages.
TableSnapshot load_table_snapshot_fd(int fd,
                                     const std::string& name = "<snapshot fd>");

/// True if the file starts with the snapshot magic — the sniff that lets
/// load_table_inputs accept a snapshot anywhere a graph/table file is read.
bool is_snapshot_file(const std::string& path);

/// Directory introspection (tests, tooling): section tags with their file
/// ranges and recorded checksums, in directory order. Validates the header
/// but not the section payloads.
struct SnapshotSectionInfo {
  std::string tag;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::vector<SnapshotSectionInfo> sections;
};
SnapshotInfo read_snapshot_directory(const std::string& path);

}  // namespace ftr
