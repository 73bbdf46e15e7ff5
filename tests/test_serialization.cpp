#include "routing/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/contracts.hpp"
#include "common/parse.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"

namespace ftr {
namespace {

TEST(Serialization, RoundTripBidirectional) {
  RouteTableBuilder builder(6, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({3, 4});
  builder.set_route({5, 0});
  const RoutingTable t = std::move(builder).build();
  const auto text = routing_table_to_string(t);
  const auto loaded = routing_table_from_string(text);
  EXPECT_EQ(loaded.num_nodes(), 6u);
  EXPECT_EQ(loaded.mode(), RoutingMode::kBidirectional);
  EXPECT_EQ(loaded.num_routes(), t.num_routes());
  EXPECT_EQ(*loaded.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*loaded.route(2, 0), (Path{2, 1, 0}));
  EXPECT_EQ(*loaded.route(4, 3), (Path{4, 3}));
}

TEST(Serialization, RoundTripUnidirectional) {
  RouteTableBuilder builder(5, RoutingMode::kUnidirectional);
  builder.set_route({0, 1, 2});
  builder.set_route({2, 3, 0});  // asymmetric pair
  const RoutingTable t = std::move(builder).build();
  const auto loaded = routing_table_from_string(routing_table_to_string(t));
  EXPECT_EQ(loaded.mode(), RoutingMode::kUnidirectional);
  EXPECT_EQ(*loaded.route(0, 2), (Path{0, 1, 2}));
  EXPECT_EQ(*loaded.route(2, 0), (Path{2, 3, 0}));
  EXPECT_EQ(loaded.num_routes(), 2u);
}

TEST(Serialization, RoundTripPreservesSurvivingBehavior) {
  // Functional equivalence: the loaded table produces identical surviving
  // graphs under the same faults.
  const auto gg = cube_connected_cycles(3);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const auto loaded =
      routing_table_from_string(routing_table_to_string(kr.table));
  EXPECT_EQ(loaded.num_routes(), kr.table.num_routes());
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sample = rng.sample(gg.graph.num_nodes(), 2);
    const std::vector<Node> faults(sample.begin(), sample.end());
    EXPECT_EQ(surviving_diameter(kr.table, faults),
              surviving_diameter(loaded, faults));
  }
}

TEST(Serialization, HeaderFormat) {
  RouteTableBuilder builder(4, RoutingMode::kUnidirectional);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  const auto text = routing_table_to_string(t);
  EXPECT_EQ(text.find("ftroute-table v1 4 unidirectional"), 0u);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST(Serialization, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# comment\n"
      "\n"
      "ftroute-table v1 4 bidirectional\n"
      "# another comment\n"
      "route 0 1 2\n"
      "\n"
      "end\n";
  const auto loaded = routing_table_from_string(text);
  EXPECT_TRUE(loaded.has_route(0, 2));
  EXPECT_TRUE(loaded.has_route(2, 0));
}

TEST(Serialization, RejectsBadHeader) {
  EXPECT_THROW(routing_table_from_string("bogus v1 4 bidirectional\nend\n"),
               ContractViolation);
  EXPECT_THROW(routing_table_from_string("ftroute-table v2 4 bidirectional\nend\n"),
               ContractViolation);
  EXPECT_THROW(routing_table_from_string("ftroute-table v1 4 sideways\nend\n"),
               ContractViolation);
  EXPECT_THROW(routing_table_from_string(""), ContractViolation);
}

TEST(Serialization, RejectsOutOfRangeNode) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0 9\nend\n"),
               ContractViolation);
}

TEST(Serialization, RejectsTruncatedRoute) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0\nend\n"),
               ContractViolation);
}

TEST(Serialization, RejectsMissingEnd) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0 1\n"),
               ContractViolation);
}

TEST(MultiSerialization, RoundTrip) {
  RouteTableBuilder builder(6, RoutingMode::kBidirectional, 3);
  builder.set_route({0, 1, 5});
  builder.set_route({0, 2, 5});
  builder.set_route({3, 4});
  const RoutingTable t = std::move(builder).build();
  const std::string text = routing_table_to_string(t);
  EXPECT_EQ(text.find("ftroute-multitable v1 6 3 bidirectional\n"), 0u);
  const auto loaded = routing_table_from_string(text);
  EXPECT_EQ(loaded.num_nodes(), 6u);
  EXPECT_EQ(loaded.max_routes_per_pair(), 3u);
  EXPECT_EQ(loaded.mode(), RoutingMode::kBidirectional);
  EXPECT_EQ(loaded.routes(0, 5).size(), 2u);
  EXPECT_EQ(loaded.routes(5, 0).size(), 2u);
  EXPECT_EQ(loaded.routes(3, 4).size(), 1u);
  EXPECT_EQ(loaded.num_routes(), t.num_routes());
  EXPECT_EQ(routing_table_to_string(loaded), text);
}

TEST(MultiSerialization, CapOneWritesTheTableHeader) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional, 1);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  EXPECT_EQ(routing_table_to_string(t),
            "ftroute-table v1 4 bidirectional\nroute 0 1\nend\n");
  const auto loaded = routing_table_from_string(
      "ftroute-multitable v1 4 1 bidirectional\nroute 0 1\nend\n");
  EXPECT_EQ(loaded.max_routes_per_pair(), 1u);
  EXPECT_EQ(routing_table_to_string(loaded), routing_table_to_string(t));
}

TEST(MultiSerialization, RoundTripPreservesSurvivingBehavior) {
  const auto gg = petersen_graph();
  const auto table = build_full_multirouting(gg.graph, 2);
  const auto loaded = routing_table_from_string(routing_table_to_string(table));
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const auto sample = rng.sample(10, 2);
    const std::vector<Node> faults(sample.begin(), sample.end());
    EXPECT_EQ(surviving_diameter(table, faults),
              surviving_diameter(loaded, faults));
  }
}

TEST(MultiSerialization, UnidirectionalRoundTrip) {
  RouteTableBuilder builder(5, RoutingMode::kUnidirectional, 2);
  builder.set_route({0, 1, 2});
  const RoutingTable t = std::move(builder).build();
  const auto loaded = routing_table_from_string(routing_table_to_string(t));
  EXPECT_EQ(loaded.mode(), RoutingMode::kUnidirectional);
  EXPECT_EQ(loaded.routes(0, 2).size(), 1u);
  EXPECT_EQ(loaded.routes(2, 0).size(), 0u);
}

TEST(MultiSerialization, UnlimitedCapSurvivesRoundTrip) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional, 0);
  builder.set_route({0, 1});
  const RoutingTable t = std::move(builder).build();
  const auto loaded = routing_table_from_string(routing_table_to_string(t));
  EXPECT_EQ(loaded.max_routes_per_pair(), 0u);
}

TEST(MultiSerialization, LoadEnforcesTheCap) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-multitable v1 6 2 bidirectional\n"
                   "route 0 1 5\nroute 0 2 5\nroute 0 3 5\nend\n"),
               ContractViolation);
}

TEST(MultiSerialization, RejectsBadHeader) {
  // Each malformed header of either kind is refused.
  for (const char* header : {
           "ftroute-table v1 4 2 bidirectional",       // a cap in a table
           "ftroute-multitable v1 4 bidirectional",    // a multitable's cap missing
           "ftroute-multitable v2 4 2 bidirectional",  // wrong version
           "ftroute-multitable v1 4 two bidirectional",
           "ftroute-multitable v1 4 -2 bidirectional",
           "ftroute-multitable v1 4 2 sideways",
           "ftroute-multitable v1 1 2 bidirectional",  // fewer than 2 nodes
           "ftroute-tables v1 4 bidirectional",
       }) {
    EXPECT_THROW(routing_table_from_string(std::string(header) + "\nend\n"),
                 ContractViolation)
        << header;
  }
  EXPECT_THROW(routing_table_from_string(""), ContractViolation);
}

// --- strictness regressions: damaged files fail loudly ----------------------
// The loaders used to stop a route at the first token operator>> choked on
// (words, punctuation, OVERFLOWING numerals) and to ignore everything after
// 'end' — corrupted or concatenated files loaded as shorter, valid-looking
// tables. These pin the strict behavior.

TEST(Serialization, RejectsGarbageTokenInRouteLine) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0 1 frog\nend\n"),
               ContractViolation);
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0 1 2x\nend\n"),
               ContractViolation);
  // A signed token must read as damage, never wrap around.
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional\nroute 0 -1\nend\n"),
               ContractViolation);
}

TEST(Serialization, RejectsOverflowingNumeralInRouteLine) {
  // Stream extraction "succeeds" past an overflow at end-of-line; the
  // strict parser must not let this load as the shorter route {0, 1}.
  try {
    (void)routing_table_from_string(
        "ftroute-table v1 4 bidirectional\n"
        "route 0 1 99999999999999999999999999\nend\n");
    FAIL() << "overflowing numeral was swallowed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("bad token"), std::string::npos);
  }
}

TEST(Serialization, RejectsTrailingGarbageAfterEnd) {
  EXPECT_THROW(
      routing_table_from_string("ftroute-table v1 4 bidirectional\n"
                                "route 0 1\nend\nroute 2 3\n"),
      ContractViolation);
  // Blank lines and comments after 'end' remain fine.
  EXPECT_NO_THROW(
      routing_table_from_string("ftroute-table v1 4 bidirectional\n"
                                "route 0 1\nend\n\n# trailing comment\n"));
}

TEST(Serialization, RejectsTrailingGarbageInHeader) {
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-table v1 4 bidirectional extra\nend\n"),
               ContractViolation);
}

TEST(MultiSerialization, RejectsGarbageTokenInRouteLine) {
  EXPECT_THROW(
      routing_table_from_string("ftroute-multitable v1 4 2 bidirectional\n"
                                "route 0 1 frog\nend\n"),
      ContractViolation);
  EXPECT_THROW(
      routing_table_from_string("ftroute-multitable v1 4 2 bidirectional\n"
                                "route 0 1 99999999999999999999999999\n"
                                "end\n"),
      ContractViolation);
}

TEST(MultiSerialization, RejectsTrailingGarbage) {
  EXPECT_THROW(
      routing_table_from_string("ftroute-multitable v1 4 2 bidirectional\n"
                                "route 0 1\nend\nroute 2 3\n"),
      ContractViolation);
  EXPECT_THROW(routing_table_from_string(
                   "ftroute-multitable v1 4 2 bidirectional extra\nend\n"),
               ContractViolation);
  EXPECT_NO_THROW(
      routing_table_from_string("ftroute-multitable v1 4 2 bidirectional\n"
                                "route 0 1\nend\n# comment\n"));
}

// Both table headers bound the node count by kMaxTextNodes, naming it,
// before the table is sized by it (its per-source offsets).
TEST(Serialization, RejectsHugeNodeCount) {
  for (const std::string& count :
       {std::string("99999999999"), std::to_string(kMaxNodes),
        std::to_string(kMaxTextNodes + 1), std::string("-4")}) {
    for (const std::string& header :
         {"ftroute-table v1 " + count + " bidirectional",
          "ftroute-multitable v1 " + count + " 2 bidirectional"}) {
      SCOPED_TRACE(header);
      try {
        routing_table_from_string(header + "\nroute 0 1\nend\n");
        FAIL() << "a header claiming " << count << " nodes loaded";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("node count '" + count + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Serialization, RejectsOverlongLineNamingIt) {
  const std::string pad(kMaxLineBytes, ' ');
  const auto expect_line_3 = [](const auto& load) {
    try {
      load();
      FAIL() << "over-long line loaded";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 3 is longer than"),
                std::string::npos)
          << e.what();
    }
  };
  expect_line_3([&] {
    (void)routing_table_from_string("# big\nftroute-table v1 4 bidirectional\n"
                                    "route 0 1" + pad + "\nend\n");
  });
  expect_line_3([&] {
    (void)routing_table_from_string(
        "# big\nftroute-multitable v1 4 2 bidirectional\nroute 0 1" + pad +
        "\nend\n");
  });
}

TEST(Serialization, BidirectionalStoresEachPairOnce) {
  RouteTableBuilder builder(4, RoutingMode::kBidirectional);
  builder.set_route({0, 1, 2});
  const RoutingTable t = std::move(builder).build();
  const auto text = routing_table_to_string(t);
  // Exactly one 'route' line despite two stored directions.
  std::size_t count = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) count += line.rfind("route", 0) == 0;
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace ftr
