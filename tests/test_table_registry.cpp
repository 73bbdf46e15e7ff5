// The serving layer's table registry: build-on-miss (the preprocessing-
// count probe), byte-accounted LRU eviction under interleaved hits,
// generation counters keeping evicted entries safe for in-flight handles,
// and the file/manifest path (planner build-on-miss included).
#include "serve/table_registry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

// Defines `names` from prebuilt kernel tables on tori of equal size (so
// every entry weighs the same number of bytes — eviction arithmetic in the
// tests stays simple). TableRegistry owns a mutex, so it is populated in
// place rather than returned.
void define_tables(TableRegistry& registry,
                   const std::vector<std::string>& names) {
  for (const auto& name : names) {
    const auto gg = torus_graph(4, 4);
    registry.define_prebuilt(name, gg.graph,
                             build_kernel_routing(gg.graph, 2).table);
  }
}

// Bytes one such entry weighs once resident.
std::size_t one_entry_bytes() {
  TableRegistry probe;
  define_tables(probe, {"x"});
  return probe.acquire("x")->memory_bytes;
}

TEST(TableRegistry, BuildOnMissThenHitsSkipPreprocessing) {
  TableRegistry registry;
  define_tables(registry, {"a", "b"});
  EXPECT_EQ(registry.stats().builds, 0u);  // definition is lazy

  const auto a1 = registry.acquire("a");
  EXPECT_EQ(a1->name, "a");
  EXPECT_EQ(a1->generation, 1u);
  EXPECT_NE(a1->index, nullptr);
  EXPECT_GT(a1->memory_bytes, 0u);
  EXPECT_EQ(registry.stats().builds, 1u);
  EXPECT_EQ(registry.stats().misses, 1u);

  // Warm acquires return the SAME entry and never touch the preprocessor.
  for (int i = 0; i < 5; ++i) {
    const auto again = registry.acquire("a");
    EXPECT_EQ(again.get(), a1.get());
  }
  EXPECT_EQ(registry.stats().builds, 1u);
  EXPECT_EQ(registry.stats().hits, 5u);

  registry.acquire("b");
  EXPECT_EQ(registry.stats().builds, 2u);
  EXPECT_THROW(registry.acquire("nope"), ContractViolation);
}

TEST(TableRegistry, LruOrderUnderInterleavedHits) {
  TableRegistry registry;
  define_tables(registry, {"a", "b", "c"});
  registry.acquire("a");
  registry.acquire("b");
  registry.acquire("c");
  EXPECT_EQ(registry.resident_lru_order(),
            (std::vector<std::string>{"a", "b", "c"}));

  // Hits re-heat: after touching a then b, c is the coldest.
  registry.acquire("a");
  registry.acquire("b");
  EXPECT_EQ(registry.resident_lru_order(),
            (std::vector<std::string>{"c", "a", "b"}));
  registry.acquire("c");
  EXPECT_EQ(registry.resident_lru_order(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TableRegistry, ByteBudgetEvictsColdestFirst) {
  // Budget sized for exactly two of the (identically sized) entries.
  const std::size_t entry_bytes = one_entry_bytes();

  TableRegistryOptions options;
  options.max_resident_bytes = 2 * entry_bytes;
  TableRegistry registry(options);
  define_tables(registry, {"a", "b", "c"});

  registry.acquire("a");
  registry.acquire("b");
  EXPECT_EQ(registry.stats().resident_bytes, 2 * entry_bytes);
  EXPECT_EQ(registry.stats().evictions, 0u);

  // Touch a so b is coldest; admitting c must evict b, not a.
  registry.acquire("a");
  registry.acquire("c");
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_FALSE(registry.resident("b"));
  EXPECT_TRUE(registry.resident("c"));
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_EQ(registry.stats().resident_bytes, 2 * entry_bytes);
  EXPECT_EQ(registry.resident_lru_order(),
            (std::vector<std::string>{"a", "c"}));
}

TEST(TableRegistry, SingleEntryOverBudgetStaysResident) {
  const std::size_t entry_bytes = one_entry_bytes();

  TableRegistryOptions options;
  options.max_resident_bytes = entry_bytes / 2;  // nothing fits
  TableRegistry registry(options);
  define_tables(registry, {"a", "b"});

  const auto a = registry.acquire("a");
  // The just-acquired entry is never evicted, even alone over budget.
  EXPECT_TRUE(registry.resident("a"));
  registry.acquire("b");
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));
  EXPECT_EQ(registry.stats().evictions, 1u);
  // The drained handle is still fully usable.
  EXPECT_EQ(a->index->num_nodes(), a->graph.num_nodes());
}

TEST(TableRegistry, EvictionDuringInFlightBatchKeepsHandleAlive) {
  const std::size_t entry_bytes = one_entry_bytes();

  TableRegistryOptions options;
  options.max_resident_bytes = entry_bytes;  // one resident table at a time
  TableRegistry registry(options);
  define_tables(registry, {"a", "b"});

  // An in-flight batch holds a's handle...
  const TableHandle in_flight = registry.acquire("a");
  EXPECT_EQ(in_flight->generation, 1u);

  // ...while another table's acquire evicts a under the byte budget.
  registry.acquire("b");
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_EQ(registry.stats().evictions, 1u);

  // The evicted entry drains safely: the handle still answers evaluations.
  SrgScratch scratch(*in_flight->index);
  const auto result = scratch.evaluate(std::vector<Node>{0, 5});
  EXPECT_GT(result.survivors, 0u);

  // Re-acquiring a materializes a NEW generation; the old handle's entry is
  // untouched and distinguishable.
  const auto rebuilt = registry.acquire("a");
  EXPECT_EQ(rebuilt->generation, 2u);
  EXPECT_EQ(in_flight->generation, 1u);
  EXPECT_NE(rebuilt.get(), in_flight.get());
  EXPECT_EQ(registry.stats().builds, 3u);
}

TEST(TableRegistry, ByteAccountingTracksResidentSum) {
  TableRegistry registry;
  define_tables(registry, {"a", "b", "c"});
  std::size_t expected = 0;
  for (const auto* name : {"a", "b", "c"}) {
    expected += registry.acquire(name)->memory_bytes;
    EXPECT_EQ(registry.stats().resident_bytes, expected);
  }
  EXPECT_EQ(registry.stats().resident_tables, 3u);

  registry.evict_all();
  EXPECT_EQ(registry.stats().resident_bytes, 0u);
  EXPECT_EQ(registry.stats().resident_tables, 0u);
  EXPECT_EQ(registry.stats().evictions, 3u);

  // Re-acquire after a full purge: generations advance, bytes re-account.
  const auto a = registry.acquire("a");
  EXPECT_EQ(a->generation, 2u);
  EXPECT_EQ(registry.stats().resident_bytes, a->memory_bytes);
}

TEST(TableRegistry, FileSpecBuildsViaPlannerOnMiss) {
  const std::string dir = testing::TempDir();
  const std::string graph_path = dir + "/ftr_registry_graph.ftg";
  {
    const auto gg = torus_graph(4, 4);
    std::ofstream out(graph_path);
    save_graph(gg.graph, out);
  }

  TableRegistry registry;
  TableSpec spec;
  spec.graph_file = graph_path;
  spec.build_seed = 7;
  registry.define("planned", spec);

  const auto entry = registry.acquire("planned");
  EXPECT_EQ(entry->graph.num_nodes(), 16u);
  EXPECT_GT(entry->table.num_routes(), 0u);
  // Planner metadata rides along for `certify` requests.
  EXPECT_GT(entry->plan.guaranteed_diameter, 0u);
  EXPECT_EQ(registry.stats().builds, 1u);

  // A table file in the spec is loaded instead of planned.
  const std::string table_path = dir + "/ftr_registry_table.ftt";
  {
    std::ofstream out(table_path);
    save_routing_table(entry->table, out);
  }
  TableSpec loaded_spec;
  loaded_spec.graph_file = graph_path;
  loaded_spec.table_file = table_path;
  registry.define("loaded", loaded_spec);
  const auto loaded = registry.acquire("loaded");
  EXPECT_EQ(loaded->table.num_routes(), entry->table.num_routes());
  EXPECT_EQ(loaded->plan.guaranteed_diameter, 0u);  // no claims from files

  // A bad path fails the acquire without poisoning the registry.
  TableSpec bad;
  bad.graph_file = dir + "/ftr_registry_missing.ftg";
  registry.define("bad", bad);
  EXPECT_THROW(registry.acquire("bad"), ContractViolation);
  EXPECT_TRUE(registry.resident("planned"));
}

TEST(TableRegistry, ManifestParsesAndRejectsWithLineNumbers) {
  const std::string dir = testing::TempDir();
  const std::string graph_path = dir + "/ftr_manifest_graph.ftg";
  {
    const auto gg = torus_graph(4, 4);
    std::ofstream out(graph_path);
    save_graph(gg.graph, out);
  }

  TableRegistry registry;
  std::istringstream manifest(
      "# tenant tables\n"
      "\n"
      "table demo graph=" + graph_path + " seed=11\n"
      "table other graph=" + graph_path + "\n");
  EXPECT_EQ(load_table_manifest(manifest, registry), 2u);
  EXPECT_EQ(registry.defined_names(),
            (std::vector<std::string>{"demo", "other"}));
  EXPECT_EQ(registry.acquire("demo")->graph.num_nodes(), 16u);

  {
    std::istringstream bad("table demo graph=" + graph_path + "\n"
                           "tabel oops graph=x\n");
    TableRegistry fresh;
    try {
      load_table_manifest(bad, fresh);
      FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  {
    // A line past the 1 MiB line cap fails by number, unbuffered.
    std::istringstream bad("table demo graph=" + graph_path + "\n" +
                           std::string((std::size_t{1} << 20) + 1, 'x'));
    TableRegistry fresh;
    try {
      load_table_manifest(bad, fresh);
      FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 2 is longer than"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::istringstream bad("table demo seed=3\n");  // no graph=
    TableRegistry fresh;
    EXPECT_THROW(load_table_manifest(bad, fresh), ContractViolation);
  }
  {
    // A duplicate name is a manifest typo, not a silent last-wins.
    std::istringstream bad("table demo graph=" + graph_path + "\n"
                           "table demo graph=" + graph_path + "\n");
    TableRegistry fresh;
    try {
      load_table_manifest(bad, fresh);
      FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find("duplicate table"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace ftr
