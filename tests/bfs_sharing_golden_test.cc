// Golden worlds and answers for BFS Sharing: the exact words
// BfsSharingIndex::Build samples and the exact bits the estimator returns
// for fixed graphs, queries and seeds. The digests were recorded from the
// per-bit world fill that predates the branch-free one; any change to the
// number of draws an edge consumes, to the coin or geometric-skip semantics,
// or to the order edges are filled in changes a digest. Both storage
// layouts must reproduce the same digests.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "reliability/bfs_sharing.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::Digest;

UncertainGraph DatasetGraph(DatasetId id, StorageLayout layout) {
  const Dataset dataset = MakeDataset(id, Scale::kTiny, 7).MoveValue();
  return GraphBuilder::FromGraph(dataset.graph).Build(layout).MoveValue();
}

/// Edges at and around the fill's cut-offs: the smallest positive
/// probabilities (geometric skips that overflow to the clamp), both sides
/// of the 0.25 switch between geometric skipping and per-bit coins, and the
/// largest probability below 1 next to certain edges.
UncertainGraph BoundaryGraph(StorageLayout layout) {
  const double probs[] = {std::numeric_limits<double>::denorm_min(),
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
  GraphBuilder builder(12);
  NodeId v = 0;
  for (const double p : probs) {
    builder.AddEdge(v, v + 1, p).CheckOK();
    builder.AddEdge(v + 1, v, p).CheckOK();
    ++v;
  }
  return builder.Build(layout).MoveValue();
}

/// Digest of every edge block of Build(graph, L, seed) over a few seeds.
uint64_t WordsDigest(const UncertainGraph& graph, uint32_t num_samples) {
  Digest digest;
  for (const uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    BfsSharingOptions options;
    options.index_samples = num_samples;
    const auto index = BfsSharingIndex::Build(graph, options, seed).MoveValue();
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      for (size_t w = 0; w < index->words_per_edge(); ++w) {
        digest.Add(index->edge_words(e)[w]);
      }
    }
  }
  return digest.value();
}

class BfsSharingGoldenTest : public ::testing::TestWithParam<StorageLayout> {};

TEST_P(BfsSharingGoldenTest, IndexWords) {
  const struct {
    DatasetId id;
    uint64_t l1, l64, l100, l1500;
  } cases[] = {
      {DatasetId::kLastFm, 0x4F6349707B9F70C5ULL, 0xF92EC5747551C73EULL,
       0xEA3B7BFDC44BB655ULL, 0x57368033C6897D67ULL},
      {DatasetId::kNetHept, 0x25CAE780DCB5EA05ULL, 0xF2264A8609BE7C2FULL,
       0xB23E240043DBFDE7ULL, 0xB609ACD9252FF2AAULL},
      {DatasetId::kBioMine, 0xAB9246A9B83F1E04ULL, 0xBB08BA51004CAA32ULL,
       0xCF576FA84D0183B8ULL, 0x401253FC6D1CCA35ULL},
  };
  for (const auto& c : cases) {
    const UncertainGraph graph = DatasetGraph(c.id, GetParam());
    EXPECT_EQ(WordsDigest(graph, 1), c.l1) << DatasetName(c.id);
    EXPECT_EQ(WordsDigest(graph, 64), c.l64) << DatasetName(c.id);
    EXPECT_EQ(WordsDigest(graph, 100), c.l100) << DatasetName(c.id);
    EXPECT_EQ(WordsDigest(graph, 1500), c.l1500) << DatasetName(c.id);
  }
}

TEST_P(BfsSharingGoldenTest, BoundaryProbabilityWords) {
  const UncertainGraph graph = BoundaryGraph(GetParam());
  EXPECT_EQ(WordsDigest(graph, 1), 0xF656EFEF75945BC4ULL);
  EXPECT_EQ(WordsDigest(graph, 64), 0x80EB63F53CD390F9ULL);
  EXPECT_EQ(WordsDigest(graph, 100), 0x07A7317850BBC0DCULL);
  EXPECT_EQ(WordsDigest(graph, 1500), 0xBE4DA9648C9A4958ULL);
}

// Every answer surface over resampled generations: s-t, sweeps and their
// world-slice strata at S in {1, 4}, top-k and reliable-set. Each query
// re-arms the index first, as the engine does.
TEST_P(BfsSharingGoldenTest, Answers) {
  const struct {
    DatasetId id;
    uint64_t st, sweep, strata, ranked;
  } cases[] = {
      {DatasetId::kLastFm, 0x664CA1266BCD23FCULL, 0x0F096A6D2124B361ULL,
       0x314B8684B2982D24ULL, 0x04064BC4E3C05F90ULL},
      {DatasetId::kNetHept, 0x5D6DCA61F1F0C145ULL, 0xBE52F7595EABD18DULL,
       0x746C73F7B0DEADCFULL, 0x016D79A91CF553CBULL},
      {DatasetId::kBioMine, 0x7280B8983DF04F6CULL, 0xB30A46F1B96DF699ULL,
       0x8875C638D6E121D9ULL, 0xCC4C9F7573D32D2DULL},
  };
  for (const auto& c : cases) {
    const UncertainGraph graph = DatasetGraph(c.id, GetParam());
    BfsSharingOptions index_options;
    index_options.index_samples = 1500;
    auto estimator =
        BfsSharingEstimator::Create(graph, index_options, 3).MoveValue();
    QueryGenOptions pairs;
    pairs.num_pairs = 8;
    Digest st;
    Digest sweep;
    Digest strata;
    Digest ranked;
    uint64_t seed = 100;
    for (const ReliabilityQuery& q : GenerateQueries(graph, pairs).MoveValue()) {
      ASSERT_TRUE(estimator->PrepareForNextQuery(++seed).ok());
      EstimateOptions options;
      options.num_samples = 1000;
      st.Add(estimator->Estimate(q, options).MoveValue().reliability);
      for (const uint32_t num_strata : {1u, 4u}) {
        options.num_strata = num_strata;
        sweep.Add(estimator->EstimateFromSource(q.source, options).MoveValue());
        for (uint32_t j = 0; j < num_strata; ++j) {
          strata.Add(estimator
                         ->EstimateSweepStratumHits(q.source, j, num_strata,
                                                    options)
                         .MoveValue());
        }
      }
      for (const ReliableTarget& t :
           TopKReliableTargetsBfsSharing(*estimator, q.source, 5, 1500)
               .MoveValue()) {
        ranked.Add(static_cast<uint64_t>(t.node));
        ranked.Add(t.reliability);
      }
      const ReliableSetResult set =
          ReliableSetBfsSharing(*estimator, q.source, 0.3, 700).MoveValue();
      for (const ReliableTarget& t : set.members) {
        ranked.Add(static_cast<uint64_t>(t.node));
        ranked.Add(t.reliability);
      }
    }
    EXPECT_EQ(st.value(), c.st) << DatasetName(c.id);
    EXPECT_EQ(sweep.value(), c.sweep) << DatasetName(c.id);
    EXPECT_EQ(strata.value(), c.strata) << DatasetName(c.id);
    EXPECT_EQ(ranked.value(), c.ranked) << DatasetName(c.id);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, BfsSharingGoldenTest,
                         ::testing::Values(StorageLayout::kRaw,
                                           StorageLayout::kCompact),
                         [](const auto& info) {
                           return std::string(StorageLayoutName(info.param));
                         });

}  // namespace
}  // namespace relcomp
