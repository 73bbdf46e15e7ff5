#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/contracts.hpp"
#include "common/parse.hpp"
#include "gen/generators.hpp"

namespace ftr {
namespace {

TEST(GraphIo, RoundTrip) {
  const auto gg = petersen_graph();
  const Graph loaded = graph_from_string(graph_to_string(gg.graph));
  EXPECT_EQ(loaded, gg.graph);
}

TEST(GraphIo, RoundTripLarge) {
  const auto gg = cube_connected_cycles(4);
  const Graph loaded = graph_from_string(graph_to_string(gg.graph));
  EXPECT_EQ(loaded, gg.graph);
}

TEST(GraphIo, EdgelessGraph) {
  const Graph g(5);
  const Graph loaded = graph_from_string(graph_to_string(g));
  EXPECT_EQ(loaded.num_nodes(), 5u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST(GraphIo, CommentsIgnored) {
  const std::string text =
      "# generated by test\n"
      "ftroute-graph v1 3\n"
      "# a triangle\n"
      "edge 0 1\n"
      "edge 1 2\n"
      "edge 0 2\n"
      "end\n";
  const Graph g = graph_from_string(text);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphIo, RejectsBadHeader) {
  EXPECT_THROW(graph_from_string("nope v1 3\nend\n"), ContractViolation);
  EXPECT_THROW(graph_from_string(""), ContractViolation);
}

TEST(GraphIo, RejectsOutOfRangeEdge) {
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nedge 0 7\nend\n"),
               ContractViolation);
}

TEST(GraphIo, RejectsSelfLoop) {
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nedge 1 1\nend\n"),
               ContractViolation);
}

TEST(GraphIo, RejectsMissingEnd) {
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nedge 0 1\n"),
               ContractViolation);
}

TEST(GraphIo, RejectsGarbageLine) {
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nvertex 0\nend\n"),
               ContractViolation);
}

// Every token is parsed strictly: extra tokens, signs and header trailers
// are damage, not something to skip over.
TEST(GraphIo, RejectsExtraAndSignedTokens) {
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nedge 1 2 3\nend\n"),
               ContractViolation);
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3\nedge -1 2\nend\n"),
               ContractViolation);
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3 junk\nend\n"),
               ContractViolation);
  EXPECT_THROW(graph_from_string("ftroute-graph v1 3x\nend\n"),
               ContractViolation);
}

TEST(GraphIo, RejectsDataAfterEnd) {
  EXPECT_THROW(
      graph_from_string("ftroute-graph v1 3\nedge 0 1\nend\nedge 1 2\n"),
      ContractViolation);
  EXPECT_NO_THROW(
      graph_from_string("ftroute-graph v1 3\nedge 0 1\nend\n\n# done\n"));
}

// A node count past kMaxTextNodes is refused from the header alone, naming
// the count, before GraphBuilder allocates one adjacency row per node: a
// 39-byte file claiming 20,000,000 nodes must not cost hundreds of MB, and
// 2^31 must not end in std::bad_alloc.
TEST(GraphIo, RejectsHugeNodeCountBeforeAllocating) {
  for (const std::uint64_t n :
       {std::uint64_t{99999999999}, kMaxNodes + 1, kMaxNodes,
        std::uint64_t{20000000}, kMaxTextNodes + 1}) {
    SCOPED_TRACE(n);
    try {
      graph_from_string("ftroute-graph v1 " + std::to_string(n) +
                        "\nedge 0 1\nend\n");
      FAIL() << "a header claiming " << n << " nodes loaded";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("node count '" + std::to_string(n) +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(graph_from_string("ftroute-graph v1 " +
                              std::to_string(kMaxTextNodes) +
                              "\nedge 0 1\nend\n")
                .num_nodes(),
            kMaxTextNodes);
}

TEST(GraphIo, MidLineCommentIsIgnored) {
  const Graph g = graph_from_string(
      "ftroute-graph v1 3 # header\nedge 0 1 # first\nend # done\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, RejectsOverlongLineNamingIt) {
  const std::string text = "ftroute-graph v1 3\nedge 0 1" +
                           std::string(kMaxLineBytes, ' ') + "\nend\n";
  try {
    (void)graph_from_string(text);
    FAIL() << "over-long line loaded";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2 is longer than"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ftr
