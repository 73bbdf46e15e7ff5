#include "serve/table_registry.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <utility>

#include "common/contracts.hpp"
#include "common/parse.hpp"
#include "routing/serialization.hpp"

namespace ftr {

TableRegistry::TableRegistry(TableRegistryOptions options)
    : options_(options) {}

void TableRegistry::define(const std::string& name, TableSpec spec) {
  FTR_EXPECTS_MSG(!name.empty(), "table name must be non-empty");
  FTR_EXPECTS_MSG(!spec.graph_file.empty() || !spec.snapshot_file.empty(),
                  "table '" << name
                            << "': spec needs a graph file or a snapshot");
  FTR_EXPECTS_MSG(
      spec.snapshot_file.empty() ||
          (spec.graph_file.empty() && spec.table_file.empty()),
      "table '" << name
                << "': snapshot is exclusive with graph/routes files");
  const std::lock_guard<std::mutex> lock(mutex_);
  drop_resident_locked(name, /*count_eviction=*/false);
  auto& provider = providers_[name];  // keeps next_generation on redefine
  provider.spec = std::move(spec);
  provider.graph.reset();
  provider.table.reset();
  provider.plan = {};
  provider.prebuilt = false;
}

void TableRegistry::define_prebuilt(const std::string& name, Graph graph,
                                    RoutingTable table, Plan plan) {
  FTR_EXPECTS_MSG(!name.empty(), "table name must be non-empty");
  FTR_EXPECTS_MSG(graph.num_nodes() == table.num_nodes(),
                  "table '" << name << "': graph/table node counts differ");
  const std::lock_guard<std::mutex> lock(mutex_);
  drop_resident_locked(name, /*count_eviction=*/false);
  auto& provider = providers_[name];
  provider.spec = {};
  provider.graph = std::move(graph);
  provider.table = std::move(table);
  provider.plan = std::move(plan);
  provider.prebuilt = true;
}

bool TableRegistry::defined(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return providers_.count(name) != 0;
}

std::vector<std::string> TableRegistry::defined_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(providers_.size());
  for (const auto& [name, provider] : providers_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

TableHandle TableRegistry::acquire(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto rit = resident_.find(name);
  if (rit != resident_.end()) {
    ++stats_.hits;
    // Touch: splice this name to the hot end without invalidating iterators.
    lru_.splice(lru_.end(), lru_, rit->second.lru_pos);
    return rit->second.handle;
  }
  const auto pit = providers_.find(name);
  FTR_EXPECTS_MSG(pit != providers_.end(), "unknown table '" << name << "'");
  ++stats_.misses;
  TableHandle handle = materialize_locked(name, pit->second);
  lru_.push_back(name);
  resident_.emplace(name, Resident{handle, std::prev(lru_.end())});
  stats_.resident_bytes += handle->memory_bytes;
  evict_over_budget_locked(name);
  return handle;
}

TableHandle TableRegistry::materialize_locked(const std::string& name,
                                              Provider& provider) {
  auto entry = std::make_shared<ServedTable>();
  const bool from_snapshot =
      !provider.prebuilt && !provider.spec.snapshot_file.empty();
  TableSnapshot& snap = *entry;
  snap = provider.prebuilt
             ? make_table_snapshot(*provider.graph, *provider.table,
                                   provider.plan)
             : make_table_snapshot(load_table_inputs(provider.spec));
  entry->name = name;
  entry->memory_bytes = entry->graph.memory_bytes() +
                        entry->table.memory_bytes() +
                        entry->index->memory_bytes() +
                        entry->route_load_ranking.capacity() * sizeof(Node);
  // Everything that can throw is behind us: commit the build (or snapshot
  // load) and the generation only for entries that actually materialized.
  if (from_snapshot) {
    ++stats_.snapshot_loads;
  } else {
    ++stats_.builds;
  }
  entry->generation = provider.next_generation++;
  return entry;
}

void TableRegistry::drop_resident_locked(const std::string& name,
                                         bool count_eviction) {
  const auto rit = resident_.find(name);
  if (rit == resident_.end()) return;
  stats_.resident_bytes -= rit->second.handle->memory_bytes;
  if (count_eviction) ++stats_.evictions;
  lru_.erase(rit->second.lru_pos);
  resident_.erase(rit);
}

void TableRegistry::evict_over_budget_locked(const std::string& keep) {
  if (options_.max_resident_bytes == 0) return;
  auto it = lru_.begin();
  while (stats_.resident_bytes > options_.max_resident_bytes &&
         it != lru_.end()) {
    if (*it == keep) {  // the entry being acquired always survives
      ++it;
      continue;
    }
    const auto rit = resident_.find(*it);
    FTR_ASSERT(rit != resident_.end());
    stats_.resident_bytes -= rit->second.handle->memory_bytes;
    ++stats_.evictions;
    resident_.erase(rit);
    it = lru_.erase(it);
  }
}

bool TableRegistry::resident(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resident_.count(name) != 0;
}

std::vector<std::string> TableRegistry::resident_lru_order() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

TableRegistryStats TableRegistry::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TableRegistryStats out = stats_;
  out.resident_tables = resident_.size();
  return out;
}

void TableRegistry::evict_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions += resident_.size();
  resident_.clear();
  lru_.clear();
  stats_.resident_bytes = 0;
}

std::size_t load_table_manifest(std::istream& in, TableRegistry& registry) {
  std::string line;
  std::size_t line_no = 0;
  std::size_t defined = 0;
  while (next_data_line(in, line, line_no)) {
    std::istringstream fields(line);
    std::string word;
    FTR_ASSERT(fields >> word);  // next_data_line never yields a blank line
    FTR_EXPECTS_MSG(word == "table", "manifest line "
                                         << line_no
                                         << ": expected 'table', got '"
                                         << word << "'");
    std::string name;
    FTR_EXPECTS_MSG(fields >> name,
                    "manifest line " << line_no << ": missing table name");
    TableSpec spec;
    bool saw_seed = false;
    std::string token;
    while (fields >> token) {
      const auto eq = token.find('=');
      FTR_EXPECTS_MSG(eq != std::string::npos && eq > 0 &&
                          eq + 1 < token.size(),
                      "manifest line " << line_no << ": expected key=value, "
                                       << "got '" << token << "'");
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "graph") {
        spec.graph_file = value;
      } else if (key == "routes") {
        spec.table_file = value;
      } else if (key == "seed") {
        const auto seed = parse_u64(value);
        FTR_EXPECTS_MSG(seed.has_value(), "manifest line " << line_no
                                                           << ": bad seed '"
                                                           << value << "'");
        spec.build_seed = *seed;
        saw_seed = true;
      } else if (key == "snapshot") {
        spec.snapshot_file = value;
      } else {
        FTR_EXPECTS_MSG(false, "manifest line " << line_no
                                                << ": unknown key '" << key
                                                << "'");
      }
    }
    FTR_EXPECTS_MSG(!spec.graph_file.empty() || !spec.snapshot_file.empty(),
                    "manifest line " << line_no << ": table '" << name
                                     << "' needs graph=<file> or "
                                     << "snapshot=<file>");
    FTR_EXPECTS_MSG(spec.snapshot_file.empty() ||
                        (spec.graph_file.empty() && spec.table_file.empty() &&
                         !saw_seed),
                    "manifest line "
                        << line_no << ": table '" << name
                        << "': snapshot= is exclusive with "
                        << "graph=/routes=/seed=");
    // A duplicate name in one manifest is almost certainly a copy-paste
    // typo; silently letting the last definition win would strand every
    // request aimed at the lost spec on 'unknown table'. (Programmatic
    // redefinition via define() remains allowed.)
    FTR_EXPECTS_MSG(!registry.defined(name),
                    "manifest line " << line_no << ": duplicate table '"
                                     << name << "'");
    registry.define(name, std::move(spec));
    ++defined;
  }
  return defined;
}

}  // namespace ftr
