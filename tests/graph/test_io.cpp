#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace ecl::test {
namespace {

using graph::Digraph;

TEST(GraphIo, EdgeListRoundTrip) {
  const auto g = graph::cycle_graph(10);
  std::stringstream buffer;
  graph::write_edge_list(buffer, g);
  const Digraph h = graph::read_edge_list(buffer);
  EXPECT_EQ(h.num_vertices(), 10u);
  EXPECT_EQ(h.num_edges(), 10u);
  EXPECT_TRUE(h.has_edge(9, 0));
}

TEST(GraphIo, EdgeListSkipsCommentsAndBlanks) {
  std::stringstream in("# header\n\n% more\n0 1\n1 2\n");
  const Digraph g = graph::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, EdgeListMalformedThrows) {
  std::stringstream in("0 banana\n");
  EXPECT_THROW((void)graph::read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, DimacsRoundTrip) {
  const auto g = graph::grid_dag(3, 3);
  std::stringstream buffer;
  graph::write_dimacs(buffer, g);
  const Digraph h = graph::read_dimacs(buffer);
  EXPECT_EQ(h.num_vertices(), 9u);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(h.has_edge(0, 1));
}

TEST(GraphIo, DimacsRequiresHeader) {
  std::stringstream in("a 1 2\n");
  EXPECT_THROW((void)graph::read_dimacs(in), std::runtime_error);
}

TEST(GraphIo, DimacsIsOneBased) {
  std::stringstream in("p sp 2 1\na 0 1\n");
  EXPECT_THROW((void)graph::read_dimacs(in), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRoundTrip) {
  const auto g = graph::cycle_chain(3, 3);
  std::stringstream buffer;
  graph::write_matrix_market(buffer, g);
  const Digraph h = graph::read_matrix_market(buffer);
  EXPECT_EQ(h.num_vertices(), 9u);
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(GraphIo, MatrixMarketIgnoresWeights) {
  std::stringstream in("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 3 1.5\n");
  const Digraph g = graph::read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW((void)graph::read_graph_file("/nonexistent/path.mtx"), std::runtime_error);
}

TEST(GraphIo, EdgeListHonorsDeclaredVertexCount) {
  // The declared count governs even when the edges touch fewer vertices
  // (trailing isolated vertices survive a round trip).
  std::stringstream in("# vertices 6 edges 2\n0 1\n1 2\n");
  const Digraph g = graph::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, EdgeListRejectsVertexBeyondDeclaredCount) {
  std::stringstream in("# vertices 3 edges 2\n0 1\n1 7\n");
  try {
    (void)graph::read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1 7"), std::string::npos)
        << "error should name the offending line, got: " << e.what();
  }
}

TEST(GraphIo, EdgeListWithoutHeaderStillInfersVertexCount) {
  std::stringstream in("0 1\n1 99\n");
  const Digraph g = graph::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 100u);
}

TEST(GraphIo, DimacsRejectsVertexBeyondDeclaredCount) {
  std::stringstream in("p sp 3 2\na 1 2\na 2 9\n");
  try {
    (void)graph::read_dimacs(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("a 2 9"), std::string::npos)
        << "error should name the offending line, got: " << e.what();
  }
}

TEST(GraphIo, DimacsRejectsArcBeforeHeader) {
  std::stringstream in("a 1 2\np sp 3 2\na 2 3\n");
  EXPECT_THROW((void)graph::read_dimacs(in), std::runtime_error);
}

TEST(GraphIo, MatrixMarketRejectsIndexBeyondDeclaredSize) {
  std::stringstream in("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n4 1\n");
  try {
    (void)graph::read_matrix_market(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("4 1"), std::string::npos)
        << "error should name the offending line, got: " << e.what();
  }
}

TEST(GraphIo, MatrixMarketRectangularUsesPerAxisBounds) {
  // A 2x5 size line admits column index 5 but rejects row index 3.
  std::stringstream ok("2 5 1\n2 5\n");
  EXPECT_EQ(graph::read_matrix_market(ok).num_vertices(), 5u);
  std::stringstream bad("2 5 1\n3 1\n");
  EXPECT_THROW((void)graph::read_matrix_market(bad), std::runtime_error);
}

}  // namespace
}  // namespace ecl::test

namespace ecl::test {
namespace {

TEST(GraphIo, BinaryRoundTrip) {
  Rng rng(77);
  const auto g = graph::random_digraph(500, 2000, rng);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  graph::write_binary(buffer, g);
  const auto h = graph::read_binary(buffer);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(std::vector<graph::vid>(h.targets().begin(), h.targets().end()),
            std::vector<graph::vid>(g.targets().begin(), g.targets().end()));
}

TEST(GraphIo, BinaryRejectsBadMagic) {
  std::stringstream buffer("NOPE and some garbage");
  EXPECT_THROW((void)graph::read_binary(buffer), std::runtime_error);
}

TEST(GraphIo, BinaryRejectsTruncation) {
  const auto g = graph::cycle_graph(50);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  graph::write_binary(buffer, g);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW((void)graph::read_binary(cut), std::runtime_error);
}

/// A raw .eclg image: the header (magic, version 1, n, m) followed by the
/// offset and target arrays exactly as given, consistent or not.
std::string eclg_image(std::uint64_t n, std::uint64_t m, const std::vector<graph::eid>& offsets,
                       const std::vector<graph::vid>& targets) {
  std::string bytes = "ECLG";
  const auto put = [&](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(std::uint32_t{1});
  put(n);
  put(m);
  for (const graph::eid o : offsets) put(o);
  for (const graph::vid t : targets) put(t);
  return bytes;
}

/// The loader must reject `image` with an "eclg: ..." runtime_error whose
/// message contains `defect`.
void expect_rejected(const std::string& image, const std::string& defect) {
  std::stringstream in(image, std::ios::in | std::ios::binary);
  try {
    (void)graph::read_binary(in);
    ADD_FAILURE() << "accepted a file whose defect is: " << defect;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("eclg: ", 0), 0u) << message;
    EXPECT_NE(message.find(defect), std::string::npos) << message;
  }
}

TEST(GraphIo, BinaryRejectsTargetFarOutOfRangeBeforeReverse) {
  // Two vertices, one edge 0 -> 100000: once loaded, Digraph::reverse()
  // would write past its offsets array.
  expect_rejected(eclg_image(2, 1, {0, 1, 1}, {100000}), "out of range");
}

TEST(GraphIo, BinaryRejectsTargetEqualToVertexCount) {
  expect_rejected(eclg_image(3, 2, {0, 1, 2, 2}, {1, 3}), "out of range");
}

TEST(GraphIo, BinaryRejectsVertexCountBeyondIdSpace) {
  expect_rejected(eclg_image(graph::kInvalidVid, 0, {}, {}), "vertex ID space");
  expect_rejected(eclg_image(std::uint64_t{1} << 40, 0, {}, {}), "vertex ID space");
}

TEST(GraphIo, BinaryRejectsArraysLargerThanTheFile) {
  expect_rejected(eclg_image(2, std::uint64_t{1} << 40, {0, 1, 1}, {1}), "bytes left");
  expect_rejected(eclg_image(1u << 30, 0, {0}, {}), "bytes left");
}

TEST(GraphIo, BinaryRejectsNonzeroFirstOffset) {
  expect_rejected(eclg_image(2, 1, {1, 1, 1}, {0}), "offsets[0]");
}

TEST(GraphIo, BinaryRejectsDecreasingOffsets) {
  expect_rejected(eclg_image(3, 2, {0, 2, 1, 2}, {1, 2}), "decrease");
  // Offsets that end anywhere but at the edge count are inconsistent too.
  expect_rejected(eclg_image(2, 2, {0, 1, 1}, {1, 0}), "edge count");
}

TEST(GraphIo, BinaryRejectsRowsNotStrictlyIncreasing) {
  expect_rejected(eclg_image(3, 2, {0, 2, 2, 2}, {2, 1}), "strictly increasing");
  expect_rejected(eclg_image(3, 2, {0, 2, 2, 2}, {1, 1}), "strictly increasing");  // duplicate
}

/// A text reader must reject `text` with a runtime_error naming `line`.
template <typename Reader>
void expect_text_rejected(Reader read, const std::string& text, const std::string& line) {
  std::stringstream in(text);
  try {
    (void)read(in);
    ADD_FAILURE() << "accepted a file with the line: " << line;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("vertex ID space"), std::string::npos) << message;
    EXPECT_NE(message.find(line), std::string::npos) << message;
  }
}

// The text readers parse 64-bit values into the 32-bit vid: an ID or count
// of 2^32 or more used to wrap silently instead of failing.
TEST(GraphIo, EdgeListRejectsIdsBeyondIdSpace) {
  const auto read = [](std::istream& in) { return graph::read_edge_list(in); };
  // 4294967297 wrapped to 1, loading a 2-cycle that is not in the file.
  expect_text_rejected(read, "4294967297 0\n0 1\n", "4294967297 0");
  expect_text_rejected(read, "# vertices 4294967298\n0 1\n", "# vertices 4294967298");
  // A declared edge count only hints the first allocation.
  std::stringstream huge("# vertices 2 edges 1099511627776\n0 1\n");
  EXPECT_EQ(graph::read_edge_list(huge).num_edges(), 1u);
}

TEST(GraphIo, DimacsRejectsCountBeyondIdSpace) {
  expect_text_rejected([](std::istream& in) { return graph::read_dimacs(in); },
                       "p sp 4294967298 1\na 1 2\n", "p sp 4294967298 1");
}

TEST(GraphIo, MatrixMarketRejectsSizeBeyondIdSpace) {
  expect_text_rejected([](std::istream& in) { return graph::read_matrix_market(in); },
                       "%%MatrixMarket matrix coordinate pattern general\n"
                       "4294967298 4294967298 1\n1 2\n",
                       "4294967298 4294967298 1");
}

TEST(GraphIo, UpdateStreamRejectsIdBeyondIdSpace) {
  // Read as the update (1, 0) before.
  expect_text_rejected([](std::istream& in) { return graph::read_update_stream(in); },
                       "+ 4294967297 0\n", "+ 4294967297 0");
}

TEST(GraphIo, FileDispatchByExtension) {
  const auto g = graph::cycle_chain(4, 3);
  for (const char* name : {"/tmp/ecl_io_test.eclg", "/tmp/ecl_io_test.mtx",
                           "/tmp/ecl_io_test.gr", "/tmp/ecl_io_test.txt"}) {
    graph::write_graph_file(name, g);
    const auto h = graph::read_graph_file(name);
    EXPECT_EQ(h.num_vertices(), g.num_vertices()) << name;
    EXPECT_EQ(h.num_edges(), g.num_edges()) << name;
    std::remove(name);
  }
}

}  // namespace
}  // namespace ecl::test
