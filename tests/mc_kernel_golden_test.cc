// Golden answers for every Monte Carlo sampling path: the exact bits each
// estimator returns for fixed graphs, queries and seeds. The digests were
// recorded from the per-estimator BFS loops that predate the shared
// lazy-sampling kernel; any change to RNG consumption order, coin semantics
// (certain edges draw nothing), early exit at the target, hop bounds or edge
// conditioning changes a digest. Both storage layouts must reproduce the
// same digests.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "reliability/conditional.h"
#include "reliability/distance_constrained.h"
#include "reliability/estimator_factory.h"
#include "reliability/mc_sampling.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::Digest;

/// 160 nodes, four random out-edges each, including self-loops and parallel
/// edges; about a fifth of the edges are certain (p = 1), the rest spread
/// over (0, 1).
UncertainGraph MixedGraph(StorageLayout layout) {
  Rng rng(20240611);
  GraphBuilder builder(160);
  for (NodeId v = 0; v < 160; ++v) {
    for (int j = 0; j < 4; ++j) {
      const NodeId w = static_cast<NodeId>(rng.UniformInt(160));
      const double p =
          rng.UniformInt(5) == 0 ? 1.0 : 0.02 + 0.96 * rng.NextDouble();
      builder.AddEdge(v, w, p).CheckOK();
    }
  }
  return builder.Build(layout).MoveValue();
}

std::vector<ReliabilityQuery> Pairs(const UncertainGraph& graph) {
  Rng rng(77);
  std::vector<ReliabilityQuery> pairs;
  for (int i = 0; i < 12; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.UniformInt(graph.num_nodes())),
                     static_cast<NodeId>(rng.UniformInt(graph.num_nodes()))});
  }
  pairs.push_back({5, 5});
  return pairs;
}

uint64_t EstimatorDigest(EstimatorKind kind, const UncertainGraph& graph,
                         uint32_t num_strata = 1,
                         FactoryOptions factory = {}) {
  auto estimator = MakeEstimator(kind, graph, factory).MoveValue();
  Digest digest;
  uint64_t seed = 1000;
  for (const ReliabilityQuery& q : Pairs(graph)) {
    EstimateOptions options;
    options.num_samples = 400;
    options.seed = ++seed;
    options.num_strata = num_strata;
    digest.Add(estimator->Estimate(q, options).MoveValue().reliability);
  }
  return digest.value();
}

class McKernelGoldenTest : public ::testing::TestWithParam<StorageLayout> {
 protected:
  UncertainGraph graph_ = MixedGraph(GetParam());
};

TEST_P(McKernelGoldenTest, MonteCarloStPairs) {
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kMonteCarlo, graph_),
            0x12BD9F6E76724F14ULL);
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kMonteCarlo, graph_, 4),
            0x1F06643F9183F468ULL);
}

TEST_P(McKernelGoldenTest, MonteCarloSweeps) {
  MonteCarloEstimator mc(graph_);
  Digest sweeps;
  Digest strata;
  for (NodeId source : {0u, 17u, 93u}) {
    for (uint32_t num_strata : {1u, 3u}) {
      EstimateOptions options;
      options.num_samples = 300;
      options.seed = 9 + source;
      options.num_strata = num_strata;
      sweeps.Add(mc.EstimateFromSource(source, options).MoveValue());
      for (uint32_t j = 0; j < num_strata; ++j) {
        strata.Add(mc.EstimateSweepStratumHits(source, j, num_strata, options)
                       .MoveValue());
      }
    }
    sweeps.Add(
        MonteCarloReliabilityFromSource(graph_, source, 250, 4, 2).MoveValue());
    for (const ReliableTarget& t :
         TopKReliableTargetsMonteCarlo(graph_, source, 5, 200, 6).MoveValue()) {
      sweeps.Add(static_cast<uint64_t>(t.node));
      sweeps.Add(t.reliability);
    }
    const ReliableSetResult set =
        ReliableSetMonteCarlo(graph_, source, 0.3, 200, 8).MoveValue();
    for (const ReliableTarget& t : set.members) {
      sweeps.Add(static_cast<uint64_t>(t.node));
      sweeps.Add(t.reliability);
    }
  }
  EXPECT_EQ(sweeps.value(), 0x098B9B951101EE2EULL);
  EXPECT_EQ(strata.value(), 0xB3979C573D0A9F45ULL);
}

TEST_P(McKernelGoldenTest, DistanceConstrained) {
  MonteCarloEstimator mc(graph_);
  DistanceConstrainedMonteCarlo direct(graph_);
  DistanceConstrainedRecursive recursive(graph_);
  Digest via_mc;
  Digest mc_digest;
  Digest rhh_digest;
  uint64_t seed = 50;
  for (const ReliabilityQuery& q : Pairs(graph_)) {
    for (uint32_t hops : {0u, 1u, 2u, 4u}) {
      ++seed;
      EstimateOptions options;
      options.num_samples = 300;
      options.seed = seed;
      via_mc.Add(mc.EstimateDistanceConstrained(q, hops, options).MoveValue());
      const DistanceConstrainedQuery query{q.source, q.target, hops};
      mc_digest.Add(direct.Estimate(query, 300, seed).MoveValue());
      rhh_digest.Add(recursive.Estimate(query, 300, seed).MoveValue());
    }
  }
  EXPECT_EQ(via_mc.value(), mc_digest.value());
  EXPECT_EQ(mc_digest.value(), 0x58384637B0E5E805ULL);
  EXPECT_EQ(rhh_digest.value(), 0x3135AC1AE3DA2543ULL);
}

TEST_P(McKernelGoldenTest, Conditional) {
  Digest digest;
  uint64_t seed = 300;
  for (const ReliabilityQuery& q : Pairs(graph_)) {
    ReliabilityCondition condition;
    for (EdgeId e = 0; e < graph_.num_edges(); e += 7) {
      condition.present.push_back(e);
    }
    for (EdgeId e = 3; e < graph_.num_edges(); e += 5) {
      if (e % 7 != 0) condition.absent.push_back(e);
    }
    digest.Add(ConditionalReliabilityMonteCarlo(graph_, q.source, q.target,
                                                condition, 300, ++seed)
                   .MoveValue());
  }
  EXPECT_EQ(digest.value(), 0x022FB4C1EFFB48EDULL);
}

TEST_P(McKernelGoldenTest, RecursiveEstimators) {
  FactoryOptions bfs_selection;
  bfs_selection.recursive.selection = EdgeSelectionStrategy::kBfs;
  FactoryOptions random_selection;
  random_selection.recursive.selection = EdgeSelectionStrategy::kRandom;
  FactoryOptions small_rss;
  small_rss.rss.num_strata = 6;
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kRecursive, graph_),
            0xAC9D8D6D4C421697ULL);
  EXPECT_EQ(
      EstimatorDigest(EstimatorKind::kRecursive, graph_, 1, bfs_selection),
      0x068F7E9B1E6B3986ULL);
  EXPECT_EQ(
      EstimatorDigest(EstimatorKind::kRecursive, graph_, 1, random_selection),
      0x26AAEC836A6EA770ULL);
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kRecursiveStratified, graph_),
            0x420DB734476DA877ULL);
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kRecursiveStratified, graph_, 1,
                            small_rss),
            0x8E8DA457F21420F0ULL);
}

TEST_P(McKernelGoldenTest, ProbTreeWithMonteCarlo) {
  EXPECT_EQ(EstimatorDigest(EstimatorKind::kProbTree, graph_),
            0xC6D102F8B870B53EULL);
}

// The bundled dataset analogues: all-uncertain BioMine and NetHEPT (the
// kernel's draw-every-arc path) next to the AS topology, whose snapshot
// presence ratios make a few edges certain.
TEST(McKernelDatasetGoldenTest, DatasetAnalogues) {
  const struct {
    DatasetId id;
    uint64_t st;
    uint64_t sweep;
  } cases[] = {
      {DatasetId::kBioMine, 0xBF94C0D8FD9661ACULL, 0xCCDFB513699BF12AULL},
      {DatasetId::kNetHept, 0xF14B84B8290B8965ULL, 0xBA7A5C1BE32522C0ULL},
      {DatasetId::kAsTopology, 0xE9D033FCC54A28F5ULL, 0xD3FFEFD5E7D1D8E4ULL},
  };
  for (const auto& c : cases) {
    const Dataset dataset = MakeDataset(c.id, Scale::kTiny, 7).MoveValue();
    QueryGenOptions pairs;
    pairs.num_pairs = 10;
    MonteCarloEstimator mc(dataset.graph);
    Digest st;
    Digest sweep;
    uint64_t seed = 0;
    for (const ReliabilityQuery& q :
         GenerateQueries(dataset.graph, pairs).MoveValue()) {
      EstimateOptions options;
      options.num_samples = 1000;
      options.seed = ++seed;
      st.Add(mc.Estimate(q, options).MoveValue().reliability);
      options.num_strata = 4;
      sweep.Add(mc.EstimateFromSource(q.source, options).MoveValue());
    }
    EXPECT_EQ(st.value(), c.st) << dataset.name;
    EXPECT_EQ(sweep.value(), c.sweep) << dataset.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, McKernelGoldenTest,
                         ::testing::Values(StorageLayout::kRaw,
                                           StorageLayout::kCompact),
                         [](const auto& info) {
                           return std::string(StorageLayoutName(info.param));
                         });

}  // namespace
}  // namespace relcomp
