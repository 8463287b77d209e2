#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "test_util.h"

namespace relcomp {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("relcomp_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, ParseBasicEdgeList) {
  const Result<UncertainGraph> g = ParseEdgeListString("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g->edge(1).prob, 0.25);
}

TEST_F(GraphIoTest, ParseSkipsCommentsAndBlankLines) {
  const Result<UncertainGraph> g =
      ParseEdgeListString("# comment\n\n% other comment\n0 1 0.5\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST_F(GraphIoTest, ParseAcceptsTabsAndExtraSpaces) {
  const Result<UncertainGraph> g = ParseEdgeListString("0\t1\t0.5\n 2  3  0.75 \n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST_F(GraphIoTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParseEdgeListString("0 1\n").ok());
  EXPECT_FALSE(ParseEdgeListString("0 1 0.5 9\n").ok());
  EXPECT_FALSE(ParseEdgeListString("a b 0.5\n").ok());
  EXPECT_FALSE(ParseEdgeListString("0 1 zero\n").ok());
}

TEST_F(GraphIoTest, ParseRejectsBadProbabilities) {
  EXPECT_FALSE(ParseEdgeListString("0 1 0\n").ok());
  EXPECT_FALSE(ParseEdgeListString("0 1 1.5\n").ok());
  EXPECT_FALSE(ParseEdgeListString("0 1 -0.2\n").ok());
}

TEST_F(GraphIoTest, ParseReportsLineNumbers) {
  const Result<UncertainGraph> g = ParseEdgeListString("0 1 0.5\nbroken\n");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST_F(GraphIoTest, TextRoundTrip) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.01, 0.99, 11);
  ASSERT_TRUE(SaveEdgeListText(g, Path("g.txt")).ok());
  const Result<UncertainGraph> back = LoadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_edges(), g.num_edges());
  ASSERT_EQ(back->num_nodes(), g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back->edge(e).tail, g.edge(e).tail);
    EXPECT_EQ(back->edge(e).head, g.edge(e).head);
    EXPECT_DOUBLE_EQ(back->edge(e).prob, g.edge(e).prob);  // %.17g is lossless
  }
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  const UncertainGraph g = testing::RandomSmallGraph(30, 90, 0.01, 0.99, 12);
  ASSERT_TRUE(SaveBinary(g, Path("g.bin")).ok());
  const Result<UncertainGraph> back = LoadBinary(Path("g.bin"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_edges(), g.num_edges());
  ASSERT_EQ(back->num_nodes(), g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(back->edge(e).prob, g.edge(e).prob);
  }
}

TEST_F(GraphIoTest, BinaryPreservesIsolatedNodes) {
  GraphBuilder b(10);
  b.AddEdge(0, 1, 0.5).CheckOK();
  const UncertainGraph g = b.Build().MoveValue();
  ASSERT_TRUE(SaveBinary(g, Path("iso.bin")).ok());
  EXPECT_EQ(LoadBinary(Path("iso.bin"))->num_nodes(), 10u);
}

TEST_F(GraphIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadEdgeListText(Path("missing.txt")).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadBinary(Path("missing.bin")).status().code(),
            StatusCode::kIOError);
}

TEST_F(GraphIoTest, LoadBinaryRejectsWrongMagic) {
  ASSERT_TRUE(SaveEdgeListText(testing::LineGraph3(), Path("text.txt")).ok());
  EXPECT_FALSE(LoadBinary(Path("text.txt")).ok());
}

TEST_F(GraphIoTest, LoadBinaryDetectsTruncation) {
  const UncertainGraph g = testing::RandomSmallGraph(10, 30, 0.2, 0.8, 13);
  ASSERT_TRUE(SaveBinary(g, Path("t.bin")).ok());
  const auto full = std::filesystem::file_size(Path("t.bin"));
  std::filesystem::resize_file(Path("t.bin"), full / 2);
  EXPECT_FALSE(LoadBinary(Path("t.bin")).ok());
}

// Header offsets of a binary graph file: magic (8 bytes) and version (4),
// then the graph block's n and m.
constexpr size_t kNodeCountOffset = 12;
constexpr size_t kEdgeCountOffset = 20;

TEST_F(GraphIoTest, LoadBinaryRejectsEdgeCountBeyondThePayload) {
  // 2^62 edges: checked against the payload's size, never reserved.
  const UncertainGraph g = testing::RandomSmallGraph(10, 30, 0.2, 0.8, 13);
  ASSERT_TRUE(SaveBinary(g, Path("m.bin")).ok());
  testing::PatchFile(Path("m.bin"), kEdgeCountOffset, uint64_t{1} << 62);
  EXPECT_FALSE(LoadBinary(Path("m.bin")).ok());
}

TEST_F(GraphIoTest, NodeCountBeyondTheIdSpaceIsRejected) {
  // 2^64 - 1 nodes plus one edge: n + 1 wraps to 0, so the CSR offsets
  // would be sized 0 and then written past. Every path to Build refuses it.
  constexpr uint64_t kHugeNodes = std::numeric_limits<uint64_t>::max();
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  const UncertainGraph g = builder.Build().MoveValue();

  ASSERT_TRUE(SaveBinary(g, Path("n.bin")).ok());
  testing::PatchFile(Path("n.bin"), kNodeCountOffset, kHugeNodes);
  EXPECT_FALSE(LoadBinary(Path("n.bin")).ok());

  std::string block;
  AppendGraphBlock(g, &block);
  std::memcpy(block.data(), &kHugeNodes, sizeof(kHugeNodes));
  EXPECT_FALSE(ParseGraphBlock(block.data(), block.size()).ok());

  GraphBuilder huge(kHugeNodes);
  ASSERT_TRUE(huge.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(huge.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, WriteEdgeListStringHasHeaderComment) {
  const std::string text = WriteEdgeListString(testing::LineGraph3());
  EXPECT_EQ(text.rfind("# relcomp", 0), 0u);
}

}  // namespace
}  // namespace relcomp
