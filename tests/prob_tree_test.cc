#include "reliability/prob_tree.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "reliability/exact.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::Figure6Graph;
using testing::GraphFromString;
using testing::LineGraph3;
using testing::RandomSmallGraph;
using testing::SamplingTolerance;

ProbTreeIndex BuildIndex(const UncertainGraph& g, uint32_t width = 2) {
  ProbTreeOptions options;
  options.width = width;
  Result<ProbTreeIndex> index = ProbTreeIndex::Build(g, options);
  EXPECT_TRUE(index.ok()) << index.status();
  return index.MoveValue();
}

TEST(ProbTreeIndex, LineGraphDecomposesFully) {
  const UncertainGraph g = LineGraph3(0.5, 0.25);
  const ProbTreeIndex index = BuildIndex(g);
  // A 3-node path has two low-degree endpoints; everything gets covered or
  // lands in a small root.
  EXPECT_GE(index.num_bags(), 1u);
  EXPECT_LE(index.stats().root_nodes, 3u);
}

TEST(ProbTreeIndex, Figure6AggregationValue) {
  // The paper's worked example: reliability 6 -> 1 combines the direct edge
  // (0.75) with the path 6 -> 2 -> 1 (0.5 * 0.5):
  // 1 - (1 - 0.75)(1 - 0.25) = 0.8125.
  const UncertainGraph g = Figure6Graph();
  const ProbTreeIndex index = BuildIndex(g);
  // Find a virtual edge 6 -> 1 carrying exactly that probability, in any
  // bag or the root.
  bool found = false;
  auto scan = [&](const std::vector<ProbTreeEdge>& edges) {
    for (const ProbTreeEdge& e : edges) {
      if (e.tail == 6 && e.head == 1 && e.origin >= 0 &&
          std::abs(e.prob - 0.8125) < 1e-12) {
        found = true;
      }
    }
  };
  scan(index.root_edges());
  for (size_t b = 0; b < index.num_bags(); ++b) scan(index.bag(b).edges);
  EXPECT_TRUE(found);
}

TEST(ProbTreeIndex, EveryBagRespectsWidth) {
  const UncertainGraph g = RandomSmallGraph(40, 100, 0.2, 0.8, 21);
  const ProbTreeIndex index = BuildIndex(g, 2);
  for (size_t b = 0; b < index.num_bags(); ++b) {
    EXPECT_LE(index.bag(b).boundary.size(), 2u);
    EXPECT_EQ(index.bag(b).nodes.size(), index.bag(b).boundary.size() + 1);
  }
}

TEST(ProbTreeIndex, ParentsAreCreatedLaterOrRoot) {
  const UncertainGraph g = RandomSmallGraph(40, 100, 0.2, 0.8, 22);
  const ProbTreeIndex index = BuildIndex(g);
  for (size_t b = 0; b < index.num_bags(); ++b) {
    const int32_t parent = index.bag(b).parent;
    if (parent >= 0) {
      EXPECT_GT(parent, static_cast<int32_t>(b));
      // The parent must contain the child's entire boundary.
      const auto& pnodes = index.bag(parent).nodes;
      for (NodeId u : index.bag(b).boundary) {
        EXPECT_NE(std::find(pnodes.begin(), pnodes.end(), u), pnodes.end());
      }
    }
  }
}

TEST(ProbTreeIndex, CoveredNodesPartitionTheGraph) {
  const UncertainGraph g = RandomSmallGraph(40, 100, 0.2, 0.8, 23);
  const ProbTreeIndex index = BuildIndex(g);
  size_t covered = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int32_t bag = index.CoveredIn(v);
    if (bag >= 0) {
      EXPECT_EQ(index.bag(bag).covered, v);
      ++covered;
    }
  }
  EXPECT_EQ(covered, index.num_bags());
  EXPECT_EQ(index.stats().root_nodes, g.num_nodes() - covered);
}

TEST(ProbTreeIndex, QueryGraphIsSmallerOnSparseGraphs) {
  // Tree-like graphs collapse almost entirely.
  GraphBuilder b(64);
  for (NodeId v = 1; v < 64; ++v) {
    b.AddBidirectedEdge(v, v / 2, 0.5).CheckOK();  // binary tree
  }
  const UncertainGraph g = b.Build().MoveValue();
  const ProbTreeIndex index = BuildIndex(g);
  const RootedGraph rooted = index.ExtractQueryGraph(40, 41).MoveValue();
  EXPECT_LT(rooted.graph.num_edges(), g.num_edges());
  EXPECT_LT(rooted.graph.num_nodes(), g.num_nodes());
}

TEST(ProbTreeIndex, QueryGraphPreservesReliabilityOnTrees) {
  // On trees there is a single path, so w=2 aggregation is exactly lossless.
  GraphBuilder b(16);
  for (NodeId v = 1; v < 16; ++v) {
    const double p = 0.3 + 0.04 * v;
    b.AddBidirectedEdge(v, v / 2, p).CheckOK();
  }
  const UncertainGraph g = b.Build().MoveValue();
  const ProbTreeIndex index = BuildIndex(g);
  for (const auto& [s, t] : std::vector<std::pair<NodeId, NodeId>>{
           {8, 9}, {1, 15}, {10, 3}, {0, 7}}) {
    const double exact = *ExactReliabilityFactoring(g, s, t);
    const RootedGraph rooted = index.ExtractQueryGraph(s, t).MoveValue();
    const double reduced = *ExactReliabilityFactoring(
        rooted.graph, rooted.source, rooted.target);
    EXPECT_NEAR(reduced, exact, 1e-9) << s << "->" << t;
  }
}

TEST(ProbTreeIndex, QueryGraphNearLosslessOnGeneralGraphs) {
  // With cycles, the w=2 direction-independence approximation may introduce
  // tiny error; it must stay far below sampling noise.
  for (uint64_t seed = 600; seed < 610; ++seed) {
    const UncertainGraph g = RandomSmallGraph(9, 18, 0.2, 0.8, seed);
    const double exact = *ExactReliabilityEnumeration(g, 0, 8);
    const ProbTreeIndex index = BuildIndex(g);
    const RootedGraph rooted = index.ExtractQueryGraph(0, 8).MoveValue();
    const double reduced = *ExactReliabilityFactoring(
        rooted.graph, rooted.source, rooted.target);
    EXPECT_NEAR(reduced, exact, 0.02) << seed;
  }
}

TEST(ProbTreeIndex, SaveLoadRoundTrip) {
  const UncertainGraph g = RandomSmallGraph(30, 80, 0.2, 0.8, 24);
  const ProbTreeIndex index = BuildIndex(g);
  const std::string path = testing::ScratchPath("relcomp_probtree.bin");
  ASSERT_TRUE(index.SaveToFile(path).ok());
  const Result<ProbTreeIndex> loaded = ProbTreeIndex::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_bags(), index.num_bags());
  EXPECT_EQ(loaded->root_edges().size(), index.root_edges().size());
  // Query graphs extracted from the loaded index match the original.
  const RootedGraph a = index.ExtractQueryGraph(0, 20).MoveValue();
  const RootedGraph b = loaded->ExtractQueryGraph(0, 20).MoveValue();
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  std::filesystem::remove(path);
}

TEST(ProbTreeIndex, LoadFromFileRejectsHugeNodeCount) {
  // 2^62 nodes right after the magic: refused by the block's bounds, never
  // used to size the covered-bag table.
  const UncertainGraph g = RandomSmallGraph(30, 80, 0.2, 0.8, 24);
  const ProbTreeIndex index = BuildIndex(g);
  const std::string path = testing::ScratchPath("relcomp_probtree_huge.bin");
  ASSERT_TRUE(index.SaveToFile(path).ok());
  testing::PatchFile(path, /*offset=*/8, uint64_t{1} << 62);
  EXPECT_FALSE(ProbTreeIndex::LoadFromFile(path).ok());
  std::filesystem::remove(path);
}

TEST(ProbTreeIndex, LoadFromFileRejectsBagReferencesOutOfRange) {
  // A bag's parent, or an edge's origin bag, forged to an id past the last
  // bag (or below -1): refused, never followed by ExtractQueryGraph.
  const Dataset dataset =
      MakeDataset(DatasetId::kLastFm, Scale::kTiny, 7).MoveValue();
  const ProbTreeIndex index = BuildIndex(dataset.graph);
  ASSERT_GE(index.num_bags(), 1u);
  const int32_t past_end = static_cast<int32_t>(index.num_bags()) + 100000;
  // File layout: magic (8), num_nodes (8), num_bags (8), then per bag
  // covered (4), parent (4), boundary count (8) and ids (4 each), edge count
  // (8) and edges {tail 4, head 4, prob 8, origin 4}.
  constexpr size_t kFirstBag = 24;
  size_t edge_bag = kFirstBag;
  size_t b = 0;
  for (; b < index.num_bags() && index.bag(b).edges.empty(); ++b) {
    edge_bag += 24 + 4 * index.bag(b).boundary.size();
  }
  ASSERT_LT(b, index.num_bags());
  const size_t first_origin =
      edge_bag + 16 + 4 * index.bag(b).boundary.size() + 8 + 16;
  const struct {
    size_t offset;
    int32_t value;
  } forgeries[] = {{kFirstBag + 4, past_end},
                   {kFirstBag + 4, static_cast<int32_t>(index.num_bags())},
                   {kFirstBag + 4, -2},
                   {first_origin, past_end},
                   {first_origin, -7}};
  const std::string path = testing::ScratchPath("relcomp_probtree_bags.bin");
  for (const auto& forged : forgeries) {
    SCOPED_TRACE(::testing::Message() << "offset " << forged.offset
                                      << " := " << forged.value);
    ASSERT_TRUE(index.SaveToFile(path).ok());
    ASSERT_TRUE(ProbTreeIndex::LoadFromFile(path).ok());
    testing::PatchFile(path, forged.offset, forged.value);
    const Result<ProbTreeIndex> loaded = ProbTreeIndex::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  std::filesystem::remove(path);
}

TEST(ProbTreeIndex, LoadFromFileRejectsNodeIdsOutOfRange) {
  // A bag's boundary node, or an edge's tail or head, forged to an id past
  // the last node: refused, never turned into a query graph over nodes the
  // index lacks.
  const Dataset dataset =
      MakeDataset(DatasetId::kLastFm, Scale::kTiny, 7).MoveValue();
  const ProbTreeIndex index = BuildIndex(dataset.graph);
  const auto num_nodes = static_cast<uint32_t>(dataset.graph.num_nodes());
  // File layout as in LoadFromFileRejectsBagReferencesOutOfRange: a bag
  // takes 24 bytes, 4 per boundary id and 20 per edge.
  auto bag_offset = [&index](size_t b) {
    size_t offset = 24;
    for (size_t i = 0; i < b; ++i) {
      offset += 24 + 4 * index.bag(i).boundary.size() +
                20 * index.bag(i).edges.size();
    }
    return offset;
  };
  size_t boundary_bag = 0;
  while (boundary_bag < index.num_bags() &&
         index.bag(boundary_bag).boundary.empty()) {
    ++boundary_bag;
  }
  size_t edge_bag = 0;
  while (edge_bag < index.num_bags() && index.bag(edge_bag).edges.empty()) {
    ++edge_bag;
  }
  ASSERT_LT(boundary_bag, index.num_bags());
  ASSERT_LT(edge_bag, index.num_bags());
  const size_t first_boundary = bag_offset(boundary_bag) + 16;
  const size_t first_tail =
      bag_offset(edge_bag) + 16 + 4 * index.bag(edge_bag).boundary.size() + 8;
  const struct {
    size_t offset;
    uint32_t value;
  } forgeries[] = {{first_boundary, num_nodes},
                   {first_boundary, num_nodes + 100000},
                   {first_tail, num_nodes},
                   {first_tail + 4, 0xFFFFFFFFu}};
  const std::string path = testing::ScratchPath("relcomp_probtree_nodes.bin");
  for (const auto& forged : forgeries) {
    SCOPED_TRACE(::testing::Message() << "offset " << forged.offset
                                      << " := " << forged.value);
    ASSERT_TRUE(index.SaveToFile(path).ok());
    ASSERT_TRUE(ProbTreeIndex::LoadFromFile(path).ok());
    testing::PatchFile(path, forged.offset, forged.value);
    const Result<ProbTreeIndex> loaded = ProbTreeIndex::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  std::filesystem::remove(path);
}

TEST(ProbTreeIndex, MemoryBytesPositiveAndBounded) {
  const UncertainGraph g = RandomSmallGraph(50, 150, 0.2, 0.8, 25);
  const ProbTreeIndex index = BuildIndex(g);
  EXPECT_GT(index.MemoryBytes(), 0u);
  // O(|E|) space: within an order of magnitude of the raw edge data.
  EXPECT_LT(index.MemoryBytes(), g.MemoryBytes() * 10);
}

TEST(ProbTreeIndex, RejectsWidthZero) {
  ProbTreeOptions options;
  options.width = 0;
  EXPECT_FALSE(ProbTreeIndex::Build(LineGraph3(), options).ok());
}

TEST(ProbTreeIndex, ExtractValidatesNodes) {
  const ProbTreeIndex index = BuildIndex(LineGraph3());
  EXPECT_FALSE(index.ExtractQueryGraph(0, 99).ok());
}

TEST(ProbTreeEstimator, MatchesExactThroughFullPipeline) {
  for (uint64_t seed = 620; seed < 626; ++seed) {
    const UncertainGraph g = RandomSmallGraph(9, 18, 0.2, 0.8, seed);
    const double exact = *ExactReliabilityEnumeration(g, 0, 8);
    Result<std::unique_ptr<ProbTreeEstimator>> est =
        ProbTreeEstimator::Create(g, ProbTreeOptions{});
    ASSERT_TRUE(est.ok());
    EstimateOptions opts;
    opts.num_samples = 12000;
    opts.seed = seed;
    EXPECT_NEAR((*est)->Estimate({0, 8}, opts)->reliability, exact,
                SamplingTolerance(exact, 12000, 4.5) + 0.01)
        << seed;
  }
}

TEST(ProbTreeEstimator, InnerEstimatorNames) {
  const UncertainGraph g = LineGraph3();
  EXPECT_EQ(std::string(ProbTreeEstimator::Create(g, {}, ProbTreeInner::kMonteCarlo)
                            .MoveValue()
                            ->name()),
            "ProbTree");
  EXPECT_EQ(std::string(ProbTreeEstimator::Create(
                            g, {}, ProbTreeInner::kRecursiveStratified)
                            .MoveValue()
                            ->name()),
            "ProbTree+RSS");
}

TEST(ProbTreeEstimator, IndexIsReusedAcrossQueries) {
  const UncertainGraph g = RandomSmallGraph(30, 80, 0.2, 0.8, 26);
  auto est = ProbTreeEstimator::Create(g, ProbTreeOptions{}).MoveValue();
  const size_t index_bytes = est->IndexMemoryBytes();
  EstimateOptions opts;
  opts.num_samples = 200;
  opts.seed = 1;
  est->Estimate({0, 10}, opts)->reliability;
  est->Estimate({5, 20}, opts)->reliability;
  EXPECT_EQ(est->IndexMemoryBytes(), index_bytes);  // no index churn
}

TEST(ProbTreeEstimator, ReplicasShareOneIndex) {
  const UncertainGraph g = RandomSmallGraph(30, 80, 0.2, 0.8, 27);
  auto index = ProbTreeIndex::BuildShared(g, ProbTreeOptions{}).MoveValue();
  auto a = ProbTreeEstimator::CreateWithIndex(g, index).MoveValue();
  auto b = ProbTreeEstimator::CreateWithIndex(
               g, index, ProbTreeInner::kRecursiveStratified)
               .MoveValue();
  EXPECT_EQ(a->SharedIndexIdentity(), index.get());
  EXPECT_EQ(b->SharedIndexIdentity(), index.get());
  EXPECT_EQ(a->SharedIndexBytes(), index->MemoryBytes());
  EXPECT_EQ(&a->index(), index.get());

  // Same extracted query graph, same seed, same inner => same answer as an
  // estimator that built its own copy of the (seed-free) index.
  auto own = ProbTreeEstimator::Create(g, ProbTreeOptions{}).MoveValue();
  EstimateOptions opts;
  opts.num_samples = 300;
  opts.seed = 17;
  EXPECT_DOUBLE_EQ(a->Estimate({0, 12}, opts)->reliability,
                   own->Estimate({0, 12}, opts)->reliability);
  EXPECT_FALSE(ProbTreeEstimator::CreateWithIndex(g, nullptr).ok());
}

}  // namespace
}  // namespace relcomp
