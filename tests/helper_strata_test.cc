// Strata run by the engine's helper threads. An MC engine with S > 1 lists
// the strata of every s-t estimate (s != t) and every sweep flight with its
// helper pool, and the helpers claim them beside the workers, each on a
// replica of its own. Each stratum is a pure function of (seed, stratum, S)
// and hit counts are uint32 sums, so every answer must equal the bare
// estimator's, whoever ran which stratum. Covered here: the s-t stratum entry
// point against the serial estimate, strata with no samples, the engine at
// 1/2/8 threads for S in {1, 4, 16}, degenerate plans (s = t, K = 1, K < S,
// certain edges), and that helpers do run strata. CI's TSan leg repeats this
// suite, since helper threads read a worker's cancel token.

#include <chrono>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "graph/graph_builder.h"
#include "reliability/bfs_sharing.h"
#include "reliability/mc_sampling.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::BareEstimatorAnswers;
using ::relcomp::testing::CounterValue;
using ::relcomp::testing::RandomSmallGraph;
using ::relcomp::testing::Watchdog;

EngineOptions McOptions(size_t threads, uint32_t num_samples,
                        uint32_t num_strata) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = EstimatorKind::kMonteCarlo;
  options.num_samples = num_samples;
  options.num_strata = num_strata;
  options.seed = 20261022;
  return options;
}

void ExpectBitIdentical(const std::vector<EngineResult>& expected,
                        const std::vector<EngineResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].query.Describe());
    ASSERT_TRUE(expected[i].ok()) << expected[i].status;
    ASSERT_TRUE(actual[i].ok()) << actual[i].status;
    EXPECT_EQ(std::memcmp(&expected[i].reliability, &actual[i].reliability,
                          sizeof(double)),
              0)
        << expected[i].reliability << " vs " << actual[i].reliability;
    EXPECT_EQ(expected[i].num_samples, actual[i].num_samples);
    ASSERT_EQ(expected[i].targets.size(), actual[i].targets.size());
    for (size_t j = 0; j < expected[i].targets.size(); ++j) {
      EXPECT_EQ(expected[i].targets[j].node, actual[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&expected[i].targets[j].reliability,
                            &actual[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

/// Answers of a fresh engine under `options` against the bare estimator's,
/// at 1, 2 and 8 worker threads.
void ExpectEngineMatchesBareAtEveryThreadCount(
    const UncertainGraph& graph, EngineOptions options,
    const std::vector<EngineQuery>& queries) {
  for (const size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto engine = QueryEngine::Create(graph, options).MoveValue();
    ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries),
                       engine->RunBatch(queries).MoveValue());
  }
}

/// Distinct s-t pairs from a few sources, a sweep per source and a
/// distance query: everything an MC engine lists or does not list with its
/// helpers.
std::vector<EngineQuery> MixedQueries(const UncertainGraph& graph) {
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::vector<EngineQuery> queries;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 1; d <= 5; ++d) {
      queries.push_back(EngineQuery::St(s, (s + 3 * d) % n));
    }
    queries.push_back(EngineQuery::TopK(s, 4));
    queries.push_back(EngineQuery::ReliableSet(s, 0.3));
    queries.push_back(EngineQuery::Distance(s, (s + 7) % n, 3));
  }
  queries.push_back(EngineQuery::St(2, 2));
  return queries;
}

TEST(HelperStrataTest, StStrataMergeToTheSerialEstimate) {
  // The s-t stratum contract: each stratum on its own fresh replica, hits
  // summed and divided by K, equals one serial Estimate with the same S, bit
  // for bit. K = 203 splits unevenly; K = 5 leaves strata with no samples at
  // S = 16, which count 0.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 91);
  const uint64_t kSeed = 0x5EED5;
  for (const uint32_t samples : {203u, 5u}) {
    for (const uint32_t strata : {1u, 4u, 16u}) {
      for (const ReliabilityQuery query :
           {ReliabilityQuery{0, 9}, ReliabilityQuery{3, 17},
            ReliabilityQuery{5, 5}}) {
        SCOPED_TRACE(::testing::Message()
                     << "K " << samples << ", S " << strata << ", ("
                     << query.source << ", " << query.target << ")");
        EstimateOptions options;
        options.num_samples = samples;
        options.seed = kSeed;
        options.num_strata = strata;
        MonteCarloEstimator serial(graph);
        const double expected =
            serial.Estimate(query, options).MoveValue().reliability;
        uint32_t hits = 0;
        for (uint32_t j = 0; j < strata; ++j) {
          MonteCarloEstimator replica(graph);
          const uint32_t stratum_hits =
              replica.EstimateStStratumHits(query, j, strata, options)
                  .MoveValue();
          if (StratumSampleCount(samples, strata, j) == 0) {
            EXPECT_EQ(stratum_hits, 0u) << "stratum " << j;
          }
          hits += stratum_hits;
        }
        const double merged =
            static_cast<double>(hits) / static_cast<double>(samples);
        EXPECT_EQ(std::memcmp(&merged, &expected, sizeof(double)), 0)
            << merged << " vs " << expected;
      }
    }
  }
  MonteCarloEstimator mc(graph);
  EstimateOptions options;
  EXPECT_FALSE(mc.EstimateStStratumHits({0, 9}, 4, 4, options).ok());
}

TEST(HelperStrataTest, AStratumWithNoSamplesAllocatesNothing) {
  // S > K: strata past the K-th sample none. Both sweep kinds return an
  // empty vector for them (the flight merge reads it as all zeros) instead
  // of an n-entry zero vector.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 92);
  EstimateOptions options;
  options.num_samples = 5;
  options.seed = 77;
  constexpr uint32_t kStrata = 16;

  MonteCarloEstimator mc(graph);
  BfsSharingOptions bfs_options;
  bfs_options.index_samples = 64;
  auto bfs = BfsSharingEstimator::Create(graph, bfs_options, 1).MoveValue();
  ASSERT_TRUE(bfs->PrepareForNextQuery(0xB0).ok());
  for (Estimator* estimator : {static_cast<Estimator*>(&mc),
                               static_cast<Estimator*>(bfs.get())}) {
    SCOPED_TRACE(estimator->name());
    for (uint32_t j = 0; j < kStrata; ++j) {
      const std::vector<uint32_t> hits =
          estimator->EstimateSweepStratumHits(0, j, kStrata, options)
              .MoveValue();
      if (StratumSampleCount(options.num_samples, kStrata, j) == 0) {
        EXPECT_TRUE(hits.empty()) << "stratum " << j;
      } else {
        EXPECT_EQ(hits.size(), graph.num_nodes()) << "stratum " << j;
      }
    }
  }

  // Engines with S > K answer as the bare estimator does, for both kinds.
  std::vector<EngineQuery> queries = MixedQueries(graph);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    EngineOptions engine_options = McOptions(2, 5, kStrata);
    engine_options.kind = kind;
    if (kind == EstimatorKind::kBfsSharing) {
      // No distance queries: BFS Sharing does not answer them.
      std::erase_if(queries, [](const EngineQuery& q) {
        return q.workload == WorkloadKind::kDistance;
      });
    }
    ExpectEngineMatchesBareAtEveryThreadCount(graph, engine_options, queries);
  }
}

TEST(HelperStrataTest, EngineMatchesBareAtEveryThreadCountAndStratumCount) {
  // The acceptance matrix: 1/2/8 workers x S in {1, 4, 16}, with the
  // helpers claiming s-t and sweep strata whenever S > 1.
  const UncertainGraph graph = RandomSmallGraph(30, 110, 0.2, 0.9, 93);
  const std::vector<EngineQuery> queries = MixedQueries(graph);
  for (const uint32_t strata : {1u, 4u, 16u}) {
    SCOPED_TRACE(::testing::Message() << "S " << strata);
    ExpectEngineMatchesBareAtEveryThreadCount(graph, McOptions(1, 600, strata),
                                              queries);
  }
}

TEST(HelperStrataTest, HelpersRunStStrataAndSweepStrata) {
  // Passes only if a helper ran strata: one worker, and strata long enough
  // (3,125 samples each, nearly every one walking most of the graph) that
  // the two helpers, woken when the worker lists its work-list, claim some.
  // s-t estimates and sweeps each on an engine of their own, so that both
  // kinds of work-list show helper strata.
  Watchdog watchdog(std::chrono::seconds(240));
  const UncertainGraph graph = ::relcomp::testing::SlowToSearchGraph(94);
  const EngineOptions options = McOptions(1, 50'000, 16);
  const std::vector<std::vector<EngineQuery>> batches = {
      {EngineQuery::St(0, 60), EngineQuery::St(1, 60), EngineQuery::St(2, 60)},
      {EngineQuery::TopK(3, 5)}};
  for (const std::vector<EngineQuery>& queries : batches) {
    SCOPED_TRACE(queries.front().Describe());
    auto engine = QueryEngine::Create(graph, options).MoveValue();
    ASSERT_NE(engine->helper_pool(), nullptr);
    ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries),
                       engine->RunBatch(queries).MoveValue());
    obs::MetricsRegistry& metrics = engine->metrics();
    const uint64_t executed =
        CounterValue(metrics, "engine_strata_executed_total");
    const uint64_t stolen = CounterValue(metrics, "engine_strata_stolen_total");
    const uint64_t helped = CounterValue(metrics, "engine_strata_helped_total");
    EXPECT_EQ(executed, 16 * queries.size());
    EXPECT_GT(helped, 0u);
    // One worker and no coalesced query: helpers ran strata, but nobody
    // stole one (a helper's strata are not counted as stolen).
    EXPECT_EQ(stolen, 0u);
  }
}

/// A graph whose even-numbered path 0 -> 2 -> 4 -> ... is certain (p = 1),
/// with uncertain chords and a certain cycle back to 0.
UncertainGraph GraphWithCertainEdges() {
  constexpr uint32_t kNodes = 20;
  GraphBuilder builder(kNodes);
  for (NodeId v = 0; v + 2 < kNodes; v += 2) {
    builder.AddEdge(v, v + 2, 1.0).CheckOK();
    builder.AddEdge(v, v + 1, 0.4).CheckOK();
    builder.AddEdge(v + 1, v + 3, 0.7).CheckOK();
  }
  builder.AddEdge(kNodes - 2, 0, 1.0).CheckOK();
  return builder.Build().MoveValue();
}

TEST(HelperStrataTest, DegeneratePlansMatchBare) {
  const UncertainGraph random = RandomSmallGraph(24, 70, 0.3, 0.9, 95);
  const UncertainGraph certain = GraphWithCertainEdges();

  // s = t answers 1 and claims no stratum.
  {
    const std::vector<EngineQuery> queries = {
        EngineQuery::St(3, 3), EngineQuery::St(7, 7), EngineQuery::St(0, 0)};
    auto engine =
        QueryEngine::Create(random, McOptions(2, 300, 8)).MoveValue();
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) {
      ASSERT_TRUE(r.ok()) << r.status;
      EXPECT_EQ(r.reliability, 1.0);
    }
    ExpectBitIdentical(BareEstimatorAnswers(*engine, random, queries),
                       results);
    EXPECT_EQ(
        CounterValue(engine->metrics(), "engine_strata_executed_total"), 0u);
  }

  // K = 1 with S = 8 and K < S: most strata have no samples.
  for (const uint32_t samples : {1u, 3u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "K " << samples << ", S 8");
    ExpectEngineMatchesBareAtEveryThreadCount(
        random, McOptions(1, samples, 8), MixedQueries(random));
  }

  // Certain edges: along the certain path every world reaches the target.
  std::vector<EngineQuery> queries = MixedQueries(certain);
  for (NodeId t = 2; t < 20; t += 4) {
    queries.push_back(EngineQuery::St(0, t));
  }
  ExpectEngineMatchesBareAtEveryThreadCount(certain, McOptions(1, 500, 8),
                                            queries);
  auto engine = QueryEngine::Create(certain, McOptions(2, 500, 8)).MoveValue();
  for (const EngineResult& r :
       engine
           ->RunBatch(std::vector<EngineQuery>{EngineQuery::St(0, 6),
                                               EngineQuery::St(4, 18)})
           .MoveValue()) {
    ASSERT_TRUE(r.ok()) << r.status;
    EXPECT_EQ(r.reliability, 1.0) << r.query.Describe();
  }
}

}  // namespace
}  // namespace relcomp
