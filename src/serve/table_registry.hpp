// Multi-table serving, part 1: the table registry.
//
// The Peleg–Schäffer construction is per-topology — every tenant/topology
// pair owns its own {Graph, RoutingTable, SrgIndex} triple. A serving
// process holds MANY such triples, and the expensive part of each (the
// SrgIndex preprocessing the whole sweep/check layer fans out over) must be
// built once and shared, not re-derived per request. TableRegistry is that
// holder:
//
//  * entries are named and handed out as TableHandle — a
//    shared_ptr<const ServedTable>, so a handle acquired for an in-flight
//    batch keeps the entry alive even if the registry evicts it mid-batch
//    (evicted tables drain safely; nothing is torn down under a worker);
//  * build-on-miss: a name is DEFINED up front (by a TableSpec from the
//    manifest, or by prebuilt materials) and MATERIALIZED lazily on first
//    acquire. A spec materializes through load_table_inputs (routing/
//    serialization.hpp), the door every verb uses too: it loads the graph,
//    loads the routing table or builds one via the planner, and validates
//    the table against the graph, then make_table_snapshot derives the
//    SrgIndex and ranking. Every such materialization bumps stats().builds,
//    which is the preprocessing-count probe the warm-vs-cold bench and
//    tests assert on;
//  * snapshot-on-miss: a spec may instead name a binary snapshot
//    (snapshot=<file> in the manifest) — the graph, the routes and the
//    plan — which goes through the same door by mapping it (zero-copy
//    mmap), is validated like any other table, and bumps
//    stats().snapshot_loads instead of builds. Served responses are
//    bit-identical to the build-on-miss path for the same materials; only
//    the cold-acquire cost changes. A table that does not fit its graph
//    never becomes resident: its acquire throws, and serve answers each
//    request on it with an error line;
//  * residency is byte-accounted against max_resident_bytes (0 = unlimited)
//    using the memory_bytes() probes of Graph / RoutingTable / SrgIndex, and
//    evicted in LRU order — acquire() touches, eviction walks from the cold
//    end, and the entry just acquired is never evicted (a single table
//    larger than the whole budget stays resident alone);
//  * generation counters: each materialization of a name gets the next
//    generation for that name (starting at 1, persisting across evictions),
//    so observers can tell a rebuilt entry from the one their older handle
//    pins.
//
// Responses computed from a handle are pure functions of the table's
// CONTENTS, never of residency, so serving output is independent of budget,
// eviction order, and batch windows — only telemetry (stats) sees those.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/planner.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"
#include "routing/serialization.hpp"

namespace ftr {

/// One resident table: everything a request needs (the graph, the table,
/// its SrgIndex, the plan and the route-load ranking — see TableSnapshot),
/// immutable once built. The plan carries the planner's claimed (d, f) for
/// `certify` requests when the table was built on miss;
/// guaranteed_diameter == 0 for file-loaded tables, whose claims the
/// planner never saw.
struct ServedTable : TableSnapshot {
  std::string name;
  /// Per-name materialization counter (1 for the first build, +1 per
  /// rebuild after eviction). Never reused within a registry.
  std::uint64_t generation = 0;
  /// Bytes charged against the registry budget for this entry.
  std::size_t memory_bytes = 0;
};

/// Cheap shared-ownership handle; keeps the entry alive past eviction.
using TableHandle = std::shared_ptr<const ServedTable>;

struct TableRegistryOptions {
  /// Byte budget for resident entries; 0 = unlimited. The LRU tail is
  /// evicted past it (except the entry being acquired, which always stays).
  std::size_t max_resident_bytes = 0;
};

struct TableRegistryStats {
  std::uint64_t hits = 0;        // acquire() found the entry resident
  std::uint64_t misses = 0;      // acquire() had to materialize
  std::uint64_t builds = 0;      // materializations from a graph/table
                                 // file or prebuilt materials
  std::uint64_t snapshot_loads = 0;  // materializations from a binary snapshot
  std::uint64_t evictions = 0;   // entries dropped for the byte budget
  std::size_t resident_bytes = 0;
  std::size_t resident_tables = 0;
};

/// Named registry of {Graph, RoutingTable, SrgIndex} entries with
/// build-on-miss, byte-accounted LRU eviction, and generation counters.
/// All members are thread-safe behind one mutex; misses materialize under
/// the lock (the serving router acquires once per table per batch window,
/// the resident tables first and then the misses, so a build never sits on
/// a hot path of another table's requests and never evicts a table the
/// same window hits).
class TableRegistry {
 public:
  explicit TableRegistry(TableRegistryOptions options = {});

  /// Defines `name` as a file-backed spec (replacing any prior definition;
  /// a resident entry under the old definition is dropped).
  void define(const std::string& name, TableSpec spec);

  /// Defines `name` from prebuilt materials. The registry keeps its own
  /// copies as the rebuild source: materialization still constructs the
  /// SrgIndex (and counts as a build), so eviction/readmission economics
  /// match the file-backed path. Library embedders and tests use this.
  void define_prebuilt(const std::string& name, Graph graph,
                       RoutingTable table, Plan plan = {});

  bool defined(const std::string& name) const;
  std::vector<std::string> defined_names() const;  // sorted

  /// The entry for `name`: LRU-touches and returns the resident entry, or
  /// materializes it (build-on-miss), accounts its bytes, and evicts the
  /// cold tail past the budget. Throws ContractViolation for undefined
  /// names and propagates materialization failures (unreadable files,
  /// malformed tables) without poisoning the registry.
  TableHandle acquire(const std::string& name);

  bool resident(const std::string& name) const;
  /// Resident names in LRU order, coldest first (test/telemetry probe).
  std::vector<std::string> resident_lru_order() const;

  TableRegistryStats stats() const;

  /// Drops every resident entry (outstanding handles stay valid). Bytes
  /// return to zero; definitions and generation counters persist.
  void evict_all();

 private:
  struct Provider {
    TableSpec spec;                      // file recipe when !prebuilt
    std::optional<Graph> graph;          // prebuilt materials
    std::optional<RoutingTable> table;
    Plan plan;
    bool prebuilt = false;
    std::uint64_t next_generation = 1;
  };
  struct Resident {
    TableHandle handle;
    std::list<std::string>::iterator lru_pos;
  };

  TableHandle materialize_locked(const std::string& name, Provider& provider);
  void drop_resident_locked(const std::string& name, bool count_eviction);
  void evict_over_budget_locked(const std::string& keep);

  TableRegistryOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Provider> providers_;
  std::unordered_map<std::string, Resident> resident_;
  std::list<std::string> lru_;  // front = coldest, back = hottest
  TableRegistryStats stats_;
};

/// Parses a tables manifest into `registry` and returns how many tables it
/// defined. Line-oriented, '#' comments and blank lines skipped:
///   table <name> graph=<file> [routes=<file>] [seed=<S>]
///   table <name> snapshot=<file>
/// Without routes=, the table is built by the planner on first acquire
/// (seeded by seed=, default 42). snapshot= materializes from a binary
/// snapshot instead (zero-copy mmap) and is mutually exclusive with
/// graph=/routes=/seed=. Malformed lines throw ContractViolation naming the
/// 1-based line number.
std::size_t load_table_manifest(std::istream& in, TableRegistry& registry);

}  // namespace ftr
