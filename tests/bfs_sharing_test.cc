#include "reliability/bfs_sharing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reliability/exact.h"
#include "reliability/mc_sampling.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::DiamondGraph;
using testing::GraphFromString;
using testing::LineGraph3;
using testing::RandomSmallGraph;
using testing::SamplingTolerance;

std::unique_ptr<BfsSharingEstimator> Make(const UncertainGraph& g, uint32_t l,
                                          uint64_t seed = 1) {
  BfsSharingOptions options;
  options.index_samples = l;
  Result<std::unique_ptr<BfsSharingEstimator>> r =
      BfsSharingEstimator::Create(g, options, seed);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.MoveValue();
}

/// An engine replica, built with no generation, that adopted `generation`:
/// several of these read literally the same worlds.
std::unique_ptr<BfsSharingEstimator> Adopting(
    const UncertainGraph& g,
    std::shared_ptr<const BfsSharingIndex> generation) {
  BfsSharingOptions options;
  options.index_samples = generation->num_samples();
  auto replica =
      BfsSharingEstimator::CreateReplica(g, options, 0).MoveValue();
  EXPECT_TRUE(replica->AdoptPreparedGeneration(std::move(generation)).ok());
  return replica;
}

TEST(BfsSharing, MatchesClosedFormOnLine) {
  const UncertainGraph g = LineGraph3(0.5, 0.5);
  auto est = Make(g, 20000);
  EstimateOptions opts;
  opts.num_samples = 20000;
  EXPECT_NEAR(est->Estimate({0, 2}, opts)->reliability, 0.25,
              SamplingTolerance(0.25, 20000));
}

TEST(BfsSharing, HandlesCyclesAtTheFixpoint) {
  // 0 -> 1 -> 2 -> 1 cycle plus 2 -> 3: worlds that come back around the
  // cycle must converge and agree with the exact value.
  const UncertainGraph g =
      GraphFromString("0 1 0.8\n1 2 0.8\n2 1 0.8\n2 3 0.8\n");
  const double exact = *ExactReliabilityEnumeration(g, 0, 3);
  auto est = Make(g, 30000);
  EstimateOptions opts;
  opts.num_samples = 30000;
  EXPECT_NEAR(est->Estimate({0, 3}, opts)->reliability, exact,
              SamplingTolerance(exact, 30000));
}

TEST(BfsSharing, BidirectedDenseGraphAgreesWithExact) {
  // Bidirected graphs send worlds back to nodes already reached.
  GraphBuilder b(5);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) {
      if ((u + v) % 2 == 0) b.AddBidirectedEdge(u, v, 0.3).CheckOK();
    }
  }
  const UncertainGraph g = b.Build().MoveValue();
  const double exact = *ExactReliabilityEnumeration(g, 0, 4);
  auto est = Make(g, 30000);
  EstimateOptions opts;
  opts.num_samples = 30000;
  EXPECT_NEAR(est->Estimate({0, 4}, opts)->reliability, exact,
              SamplingTolerance(exact, 30000));
}

TEST(BfsSharing, DeterministicForFixedIndex) {
  const UncertainGraph g = RandomSmallGraph(20, 60, 0.2, 0.8, 31);
  auto est = Make(g, 1000);
  EstimateOptions opts;
  opts.num_samples = 1000;
  const double r1 = est->Estimate({0, 10}, opts)->reliability;
  const double r2 = est->Estimate({0, 10}, opts)->reliability;
  // Same pre-sampled worlds => bit-identical estimates.
  EXPECT_DOUBLE_EQ(r1, r2);
}

TEST(BfsSharing, PrepareForNextQueryResamplesWorlds) {
  const UncertainGraph g = RandomSmallGraph(20, 60, 0.2, 0.8, 32);
  auto est = Make(g, 400);
  EstimateOptions opts;
  opts.num_samples = 400;
  const double r1 = est->Estimate({0, 10}, opts)->reliability;
  ASSERT_TRUE(est->PrepareForNextQuery(999).ok());
  const double r2 = est->Estimate({0, 10}, opts)->reliability;
  // With K=400 worlds a resample virtually never reproduces the estimate.
  EXPECT_NE(r1, r2);
}

TEST(BfsSharing, UsesPrefixOfIndexWhenKSmaller) {
  const UncertainGraph g = DiamondGraph(0.5);
  auto est = Make(g, 10000);
  EstimateOptions opts;
  opts.num_samples = 5000;  // K < L
  const double expected = 1.0 - 0.75 * 0.75;
  EXPECT_NEAR(est->Estimate({0, 3}, opts)->reliability, expected,
              SamplingTolerance(expected, 5000));
}

TEST(BfsSharing, RejectsKAboveIndexSize) {
  const UncertainGraph g = LineGraph3();
  auto est = Make(g, 100);
  EstimateOptions opts;
  opts.num_samples = 101;
  const auto r = est->Estimate({0, 2}, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BfsSharing, IndexMemoryScalesWithL) {
  const UncertainGraph g = RandomSmallGraph(50, 200, 0.2, 0.8, 33);
  auto small = Make(g, 256);
  auto large = Make(g, 2048);
  EXPECT_GT(large->IndexMemoryBytes(), small->IndexMemoryBytes());
  // L=2048 stores 8x the bits of L=256; the per-edge BitVector header
  // dilutes the ratio, but the growth must clearly track L.
  const double ratio = static_cast<double>(large->IndexMemoryBytes()) /
                       static_cast<double>(small->IndexMemoryBytes());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 8.5);
}

TEST(BfsSharing, SaveLoadRoundTripPreservesAnswers) {
  const UncertainGraph g = RandomSmallGraph(15, 45, 0.2, 0.8, 34);
  auto est = Make(g, 500);
  const std::string path = testing::ScratchPath("relcomp_bfs_index.bin");
  ASSERT_TRUE(est->SaveToFile(path).ok());

  Result<std::unique_ptr<BfsSharingEstimator>> loaded =
      BfsSharingEstimator::LoadFromFile(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EstimateOptions opts;
  opts.num_samples = 500;
  EXPECT_DOUBLE_EQ(est->Estimate({0, 9}, opts)->reliability,
                   (*loaded)->Estimate({0, 9}, opts)->reliability);
  std::filesystem::remove(path);
}

TEST(BfsSharing, LoadRejectsMismatchedGraph) {
  const UncertainGraph g = RandomSmallGraph(15, 45, 0.2, 0.8, 35);
  auto est = Make(g, 100);
  const std::string path = testing::ScratchPath("relcomp_bfs_mismatch.bin");
  ASSERT_TRUE(est->SaveToFile(path).ok());
  const UncertainGraph other = RandomSmallGraph(15, 44, 0.2, 0.8, 36);
  EXPECT_FALSE(BfsSharingEstimator::LoadFromFile(other, path).ok());
  std::filesystem::remove(path);
}

TEST(BfsSharing, LoadRejectsHostileWorldCount) {
  const UncertainGraph g = RandomSmallGraph(15, 45, 0.2, 0.8, 35);
  auto est = Make(g, 100);
  const std::string path = testing::ScratchPath("relcomp_bfs_hostile.bin");
  // L = 2^32 - 1 right after the magic: ceil(L / 64) words per edge must be
  // in the file, however the 32-bit L + 63 would wrap.
  constexpr uint32_t kHugeL = 0xFFFFFFFFu;
  ASSERT_TRUE(est->SaveToFile(path).ok());
  testing::PatchFile(path, /*offset=*/8, kHugeL);
  EXPECT_FALSE(BfsSharingIndex::LoadFromFile(g, path).ok());

  // The retired layout ("RELBFSIX", m, L, then the words) sized its words
  // from that unchecked L; a file in it is refused.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const uint64_t m = g.num_edges();
    out.write("RELBFSIX", 8);
    out.write(reinterpret_cast<const char*>(&m), sizeof(m));
    out.write(reinterpret_cast<const char*>(&kHugeL), sizeof(kHugeL));
    ASSERT_TRUE(out.good());
  }
  EXPECT_FALSE(BfsSharingIndex::LoadFromFile(g, path).ok());
  std::filesystem::remove(path);
}

TEST(BfsSharing, RejectsZeroIndexSamples) {
  const UncertainGraph g = LineGraph3();
  BfsSharingOptions options;
  options.index_samples = 0;
  EXPECT_FALSE(BfsSharingEstimator::Create(g, options, 1).ok());
  EXPECT_EQ(BfsSharingEstimator::CreateReplica(g, options, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BfsSharing, ReplicaWithoutAGenerationRefusesEveryReader) {
  // An engine replica starts with no generation: every reader of the worlds
  // refuses until its first prepare or adoption, and it reports no index.
  // Afterwards each answers as a bare estimator prepared with the same seed.
  const UncertainGraph g = RandomSmallGraph(20, 60, 0.05, 0.9, 49);
  BfsSharingOptions options;
  options.index_samples = 300;
  const uint64_t builds_before = BfsSharingIndex::BuildCount();
  auto replica = BfsSharingEstimator::CreateReplica(g, options, 0).MoveValue();
  EXPECT_EQ(BfsSharingIndex::BuildCount(), builds_before);
  EXPECT_EQ(replica->IndexMemoryBytes(), 0u);
  EXPECT_EQ(replica->SharedIndexIdentity(), nullptr);
  EXPECT_EQ(replica->shared_index(), nullptr);
  EXPECT_EQ(replica->index_build_seconds(), 0.0);

  EstimateOptions opts;
  opts.num_samples = 300;
  const std::string path = testing::ScratchPath("relcomp_bfs_empty.bin");
  std::filesystem::remove(path);
  const auto expect_refused = [](const Status& status, const char* reader) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << reader;
  };
  expect_refused(replica->Estimate({0, 9}, opts).status(), "Estimate");
  expect_refused(replica->Estimate({4, 4}, opts).status(), "Estimate, s = t");
  expect_refused(replica->ReliabilityFromSource(0, 300).status(),
                 "ReliabilityFromSource");
  expect_refused(replica->EstimateFromSource(0, opts).status(),
                 "EstimateFromSource");
  expect_refused(replica->SourceHitCountsInWorldRange(0, 0, 300).status(),
                 "SourceHitCountsInWorldRange");
  expect_refused(replica->SourceHitCountsInWorldRange(0, 0, 0).status(),
                 "SourceHitCountsInWorldRange, no worlds");
  expect_refused(replica->EstimateSweepStratumHits(0, 1, 4, opts).status(),
                 "EstimateSweepStratumHits");
  expect_refused(replica->CurrentPreparedGeneration().status(),
                 "CurrentPreparedGeneration");
  expect_refused(replica->SaveToFile(path), "SaveToFile");
  EXPECT_FALSE(std::filesystem::exists(path));

  auto bare = Make(g, 300, 1);
  ASSERT_TRUE(replica->PrepareForNextQuery(77).ok());
  ASSERT_TRUE(bare->PrepareForNextQuery(77).ok());
  EXPECT_EQ(replica->IndexMemoryBytes(), bare->IndexMemoryBytes());
  EXPECT_EQ(replica->Estimate({0, 9}, opts)->reliability,
            bare->Estimate({0, 9}, opts)->reliability);
  EXPECT_EQ(replica->ReliabilityFromSource(0, 300).MoveValue(),
            bare->ReliabilityFromSource(0, 300).MoveValue());
  EXPECT_EQ(replica->EstimateSweepStratumHits(0, 1, 4, opts).MoveValue(),
            bare->EstimateSweepStratumHits(0, 1, 4, opts).MoveValue());
  EXPECT_TRUE(replica->CurrentPreparedGeneration().ok());
}

TEST(BfsSharing, ReplicasAdoptingOneGenerationShareIt) {
  const UncertainGraph g = RandomSmallGraph(20, 60, 0.2, 0.8, 40);
  BfsSharingOptions options;
  options.index_samples = 500;
  const uint64_t builds_before = BfsSharingIndex::BuildCount();
  auto index = BfsSharingIndex::Build(g, options, 7).MoveValue();
  auto a = Adopting(g, index);
  auto b = Adopting(g, index);
  // Two replicas, one build; both read literally the same generation.
  EXPECT_EQ(BfsSharingIndex::BuildCount() - builds_before, 1u);
  EXPECT_EQ(a->SharedIndexIdentity(), index.get());
  EXPECT_EQ(a->SharedIndexIdentity(), b->SharedIndexIdentity());
  EXPECT_EQ(a->SharedIndexBytes(), index->MemoryBytes());

  EstimateOptions opts;
  opts.num_samples = 500;
  EXPECT_DOUBLE_EQ(a->Estimate({0, 10}, opts)->reliability,
                   b->Estimate({0, 10}, opts)->reliability);
}

TEST(BfsSharing, GenerationSwapLeavesSharingReplicasIntact) {
  const UncertainGraph g = RandomSmallGraph(20, 60, 0.2, 0.8, 41);
  BfsSharingOptions options;
  options.index_samples = 400;
  auto index = BfsSharingIndex::Build(g, options, 8).MoveValue();
  auto a = Adopting(g, index);
  auto b = Adopting(g, index);
  EstimateOptions opts;
  opts.num_samples = 400;
  const double before = b->Estimate({0, 10}, opts)->reliability;

  // a resamples onto a private fresh generation; b keeps reading the
  // adopted one.
  ASSERT_TRUE(a->PrepareForNextQuery(999).ok());
  EXPECT_NE(a->SharedIndexIdentity(), b->SharedIndexIdentity());
  EXPECT_EQ(b->SharedIndexIdentity(), index.get());
  EXPECT_DOUBLE_EQ(b->Estimate({0, 10}, opts)->reliability, before);
  // With 400 worlds a resample virtually never reproduces the estimate.
  EXPECT_NE(a->Estimate({0, 10}, opts)->reliability, before);
}

TEST(BfsSharing, SaveLoadRoundTripProducesShareableIndex) {
  const UncertainGraph g = RandomSmallGraph(15, 45, 0.2, 0.8, 42);
  auto est = Make(g, 500);
  const std::string path = testing::ScratchPath("relcomp_bfs_shared.bin");
  ASSERT_TRUE(est->SaveToFile(path).ok());

  auto loaded = BfsSharingIndex::LoadFromFile(g, path).MoveValue();
  EXPECT_EQ(loaded->num_samples(), 500u);
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  // Two replicas that adopted the loaded generation answer bit-identically
  // to the estimator that saved it.
  auto a = Adopting(g, loaded);
  auto b = Adopting(g, loaded);
  EstimateOptions opts;
  opts.num_samples = 500;
  const double expected = est->Estimate({0, 9}, opts)->reliability;
  EXPECT_DOUBLE_EQ(a->Estimate({0, 9}, opts)->reliability, expected);
  EXPECT_DOUBLE_EQ(b->Estimate({0, 9}, opts)->reliability, expected);
  EXPECT_EQ(a->SharedIndexIdentity(), b->SharedIndexIdentity());
  std::filesystem::remove(path);
}

TEST(BfsSharing, AdoptionRejectsMismatchedGraph) {
  const UncertainGraph g = RandomSmallGraph(15, 45, 0.2, 0.8, 43);
  BfsSharingOptions options;
  options.index_samples = 100;
  auto index = BfsSharingIndex::Build(g, options, 1).MoveValue();
  const UncertainGraph other = RandomSmallGraph(15, 44, 0.2, 0.8, 44);
  auto replica =
      BfsSharingEstimator::CreateReplica(other, options, 0).MoveValue();
  EXPECT_FALSE(replica->AdoptPreparedGeneration(index).ok());
  EXPECT_FALSE(replica->AdoptPreparedGeneration(nullptr).ok());
  EXPECT_EQ(replica->SharedIndexIdentity(), nullptr);
}

/// Per-node counts of the worlds [offset, offset + count) of `index` in
/// which `source` reaches the node: one plain BFS per world, over the edges
/// whose bit of that world is set.
std::vector<uint32_t> PerWorldHitCounts(const UncertainGraph& g,
                                        const BfsSharingIndex& index,
                                        NodeId source, uint32_t offset,
                                        uint32_t count) {
  std::vector<uint32_t> hits(g.num_nodes(), 0);
  for (uint32_t world = offset; world < offset + count; ++world) {
    std::vector<bool> reached(g.num_nodes(), false);
    std::vector<NodeId> queue = {source};
    reached[source] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const AdjEntry& a : g.OutEdges(queue[head])) {
        const uint64_t word = index.edge_words(a.edge)[world / 64];
        if (((word >> (world % 64)) & 1) != 0 && !reached[a.neighbor]) {
          reached[a.neighbor] = true;
          queue.push_back(a.neighbor);
        }
      }
    }
    for (const NodeId v : queue) ++hits[v];
  }
  return hits;
}

TEST(BfsSharing, SharedBfsCountsEqualPerWorldReachability) {
  // Slices that start on, one past and one short of a word boundary, that
  // span one, two and three words, and that end at L; (250, 50) starts
  // where the engine's second stratum does at K = 1000, inside a word.
  const std::pair<uint32_t, uint32_t> kSlices[] = {
      {0, 1},    {0, 63},   {0, 64},   {0, 65},  {1, 64},
      {63, 130}, {64, 64},  {250, 50}, {0, 300}, {299, 1}};
  BfsSharingOptions options;
  options.index_samples = 300;
  for (const uint64_t seed : {46u, 47u, 48u}) {
    const UncertainGraph g = RandomSmallGraph(30, 120, 0.05, 0.95, seed);
    auto index = BfsSharingIndex::Build(g, options, seed).MoveValue();
    auto est = Adopting(g, index);
    for (NodeId source = 0; source < g.num_nodes(); ++source) {
      for (const auto& [offset, count] : kSlices) {
        EXPECT_EQ(
            est->SourceHitCountsInWorldRange(source, offset, count)
                .MoveValue(),
            PerWorldHitCounts(g, *index, source, offset, count))
            << "graph " << seed << ", source " << source << ", worlds ["
            << offset << ", " << offset + count << ")";
      }
    }
  }
}

TEST(BfsSharing, UsedReplicaAnswersLikeAFreshEstimator) {
  // The scratch a query leaves behind must not leak into the next one:
  // after s-t queries, sweeps and slices from other sources, at other K and
  // offsets (and a rejected range), every answer equals a fresh estimator's
  // over the same generation.
  const UncertainGraph g = RandomSmallGraph(30, 120, 0.3, 0.9, 45);
  BfsSharingOptions options;
  options.index_samples = 300;
  auto index = BfsSharingIndex::Build(g, options, 9).MoveValue();
  auto used = Adopting(g, index);
  auto history = [&](NodeId source) {
    for (const uint32_t k : {1u, 65u, 300u}) {
      EstimateOptions opts;
      opts.num_samples = k;
      ASSERT_TRUE(used->Estimate({source, (source + 7) % 30}, opts).ok());
      ASSERT_TRUE(used->ReliabilityFromSource((source + 3) % 30, k).ok());
    }
    ASSERT_TRUE(used->SourceHitCountsInWorldRange(source, 37, 200).ok());
    ASSERT_TRUE(used->SourceHitCountsInWorldRange(source, 250, 50).ok());
    EXPECT_FALSE(used->SourceHitCountsInWorldRange(source, 299, 2).ok());
  };
  for (const NodeId source : {3u, 7u, 0u, 5u}) {
    history(source + 1);
    auto fresh = Adopting(g, index);
    EXPECT_EQ(used->ReliabilityFromSource(source, 300).MoveValue(),
              fresh->ReliabilityFromSource(source, 300).MoveValue())
        << source;
    EXPECT_EQ(used->ReliabilityFromSource(source, 100).MoveValue(),
              fresh->ReliabilityFromSource(source, 100).MoveValue())
        << source;
    EXPECT_EQ(used->SourceHitCountsInWorldRange(source, 250, 50).MoveValue(),
              fresh->SourceHitCountsInWorldRange(source, 250, 50).MoveValue())
        << source;
    EstimateOptions opts;
    opts.num_samples = 300;
    EXPECT_EQ(used->Estimate({source, 20}, opts)->reliability,
              fresh->Estimate({source, 20}, opts)->reliability)
        << source;
  }
}

/// A random digraph whose every other edge has one of the fill's cut-off
/// probabilities (geometric skips that overflow to the clamp, both sides of
/// the 0.25 switch, the largest double below 1, and 1), the others uniform
/// in [0.02, 0.98].
UncertainGraph MixedProbabilityGraph(uint64_t seed, StorageLayout layout) {
  const double cutoffs[] = {std::numeric_limits<double>::denorm_min(),
                            1e-300,
                            1e-3,
                            0.1,
                            std::nextafter(0.25, 0.0),
                            0.25,
                            1.0 / 3.0,
                            0.5,
                            0.9,
                            std::nextafter(1.0, 0.0),
                            1.0};
  constexpr uint32_t kNodes = 30;
  Rng rng(seed);
  GraphBuilder builder(kNodes);
  for (uint32_t i = 0; i < 120; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(kNodes));
    const NodeId v = static_cast<NodeId>((u + 1 + rng.UniformInt(kNodes - 1)) %
                                         kNodes);
    const double p = i % 2 == 0 ? cutoffs[(i / 2) % std::size(cutoffs)]
                                : 0.02 + 0.96 * rng.NextDouble();
    builder.AddEdge(u, v, p).CheckOK();
  }
  return builder.Build(layout).MoveValue();
}

TEST(BfsSharing, NarrowedBuildIsAPrefixOfTheWholeGeneration) {
  // A generation narrowed to a budget keeps W = ceil(budget / 64) words per
  // edge, and they are the first W words of the whole L-world generation
  // of the same seed, in both layouts. A budget of L or more keeps it whole.
  BfsSharingOptions options;
  options.index_samples = 1500;
  for (const StorageLayout layout :
       {StorageLayout::kRaw, StorageLayout::kCompact}) {
    for (const uint64_t seed : {51u, 52u, 53u}) {
      const UncertainGraph g = MixedProbabilityGraph(seed, layout);
      const auto whole = BfsSharingIndex::Build(g, options, seed).MoveValue();
      ASSERT_EQ(whole->words_per_edge(), 24u);
      for (const uint32_t budget : {1u, 64u, 65u, 300u, 1000u, 1499u, 1500u,
                                    4000u}) {
        SCOPED_TRACE(::testing::Message()
                     << StorageLayoutName(layout) << ", seed " << seed
                     << ", budget " << budget);
        const auto narrowed =
            BfsSharingIndex::Build(g, options, seed, nullptr, budget)
                .MoveValue();
        const size_t w = (std::min(budget, 1500u) + 63) / 64;
        EXPECT_EQ(narrowed->num_samples(), 1500u);
        EXPECT_EQ(narrowed->words_per_edge(), w);
        EXPECT_EQ(narrowed->stored_worlds(), std::min<size_t>(64 * w, 1500));
        EXPECT_EQ(narrowed->MemoryBytes(),
                  g.num_edges() * w * sizeof(uint64_t));
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          ASSERT_TRUE(std::equal(narrowed->edge_words(e),
                                 narrowed->edge_words(e) + w,
                                 whole->edge_words(e)))
              << "edge " << e << ", p = " << g.prob(e);
        }
      }
    }
  }
}

TEST(BfsSharing, NarrowedReplicaAnswersLikeAWholeWidthEstimator) {
  // A replica with budget K = 300 of L = 1500 prepares generations of
  // 5 words (320 worlds) per edge. Its s-t, sweep and slice answers at any
  // k up to 320 equal those of a whole-width estimator prepared with the
  // same seed, after its first generation and after an in-place refill,
  // which keeps the width. Ranges past 320 are refused, and so are saving
  // the generation and adopting one of another width.
  const UncertainGraph g = MixedProbabilityGraph(54, StorageLayout::kRaw);
  BfsSharingOptions options;
  options.index_samples = 1500;
  auto narrowed =
      BfsSharingEstimator::CreateReplica(g, options, 300).MoveValue();
  auto whole = BfsSharingEstimator::Create(g, options, 2).MoveValue();
  EXPECT_EQ(narrowed->IndexMemoryBytes(), 0u);
  const size_t narrowed_bytes = g.num_edges() * 5 * sizeof(uint64_t);
  auto expect_same_answers = [&] {
    for (const NodeId s : {0u, 7u, 19u}) {
      for (const uint32_t k : {1u, 64u, 299u, 300u, 320u}) {
        EstimateOptions opts;
        opts.num_samples = k;
        EXPECT_EQ(narrowed->Estimate({s, (s + 11) % 30}, opts)->reliability,
                  whole->Estimate({s, (s + 11) % 30}, opts)->reliability)
            << "s-t from " << s << ", k = " << k;
        EXPECT_EQ(narrowed->ReliabilityFromSource(s, k).MoveValue(),
                  whole->ReliabilityFromSource(s, k).MoveValue())
            << "sweep from " << s << ", k = " << k;
      }
      for (const auto& [offset, count] :
           {std::pair<uint32_t, uint32_t>{0, 320}, {250, 70}, {319, 1},
            {64, 128}, {75, 75}}) {
        EXPECT_EQ(
            narrowed->SourceHitCountsInWorldRange(s, offset, count)
                .MoveValue(),
            whole->SourceHitCountsInWorldRange(s, offset, count).MoveValue())
            << "slice from " << s << ", [" << offset << ", "
            << offset + count << ")";
      }
    }
  };
  ASSERT_TRUE(narrowed->PrepareForNextQuery(11).ok());
  ASSERT_TRUE(whole->PrepareForNextQuery(11).ok());
  const void* identity = narrowed->SharedIndexIdentity();
  EXPECT_NE(identity, nullptr);
  EXPECT_EQ(narrowed->shared_index()->words_per_edge(), 5u);
  EXPECT_EQ(narrowed->IndexMemoryBytes(), narrowed_bytes);
  expect_same_answers();

  ASSERT_TRUE(narrowed->PrepareForNextQuery(12).ok());
  ASSERT_TRUE(whole->PrepareForNextQuery(12).ok());
  EXPECT_EQ(narrowed->SharedIndexIdentity(), identity);  // refilled in place
  EXPECT_EQ(narrowed->shared_index()->words_per_edge(), 5u);
  expect_same_answers();

  for (const auto& [offset, count] :
       {std::pair<uint32_t, uint32_t>{300, 21}, {320, 1}, {0, 321}}) {
    EXPECT_EQ(narrowed->SourceHitCountsInWorldRange(0, offset, count)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "[" << offset << ", " << offset + count << ")";
  }
  EstimateOptions past;
  past.num_samples = 321;
  EXPECT_EQ(narrowed->Estimate({0, 5}, past).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(narrowed->ReliabilityFromSource(0, 321).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(narrowed->EstimateSweepStratumHits(0, 0, 4, past).status().code(),
            StatusCode::kInvalidArgument);
  const std::string path = testing::ScratchPath("relcomp_bfs_narrowed.bin");
  std::filesystem::remove(path);
  EXPECT_FALSE(narrowed->SaveToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  std::string block;
  EXPECT_FALSE(narrowed->shared_index()->AppendBlock(&block).ok());

  // Adoption: a generation of another width is refused both ways; one a
  // replica of the same budget prepared is taken.
  EXPECT_FALSE(narrowed
                   ->AdoptPreparedGeneration(
                       whole->CurrentPreparedGeneration().MoveValue())
                   .ok());
  EXPECT_FALSE(whole
                   ->AdoptPreparedGeneration(
                       narrowed->CurrentPreparedGeneration().MoveValue())
                   .ok());
  auto sibling =
      BfsSharingEstimator::CreateReplica(g, options, 300).MoveValue();
  ASSERT_TRUE(sibling->PrepareForNextQuery(13).ok());
  ASSERT_TRUE(narrowed
                  ->AdoptPreparedGeneration(
                      sibling->CurrentPreparedGeneration().MoveValue())
                  .ok());
  ASSERT_TRUE(whole->PrepareForNextQuery(13).ok());
  expect_same_answers();
}

TEST(BfsSharing, StatisticallyMatchesMonteCarlo) {
  // Same estimator variance as MC (Section 2.3): compare across resamples.
  const UncertainGraph g = RandomSmallGraph(12, 36, 0.2, 0.7, 37);
  const double exact = *ExactReliabilityFactoring(g, 0, 11);
  auto est = Make(g, 2000);
  double sum = 0.0;
  constexpr int kRuns = 10;
  for (int i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(est->PrepareForNextQuery(5000 + i).ok());
    EstimateOptions opts;
    opts.num_samples = 2000;
    sum += est->Estimate({0, 11}, opts)->reliability;
  }
  EXPECT_NEAR(sum / kRuns, exact, SamplingTolerance(exact, 2000 * kRuns, 4.5));
}

}  // namespace
}  // namespace relcomp
