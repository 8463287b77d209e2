// Coverage of the intra-query stratified-sweep layer: the stratum helpers,
// the MC and BFS Sharing stratified cores (stratum merges bit-identical to
// serial stratified calls; BFS Sharing slice-invariance), the engine's
// stratum scheduler (bit-identical at 1/2/8 threads x S in {1, 4, 16},
// stealing-vs-blocking parity, steal counters), stratified-vs-unstratified
// accuracy, and the one generation handoff (its ownership rule, and a
// stratum thief adopting its leader's generation inside the engine).

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "graph/graph_builder.h"
#include "reliability/bfs_sharing.h"
#include "reliability/mc_sampling.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::BareEstimatorAnswers;
using ::relcomp::testing::CounterValue;
using ::relcomp::testing::RandomSmallGraph;

EngineOptions BaseOptions(size_t threads, EstimatorKind kind,
                          uint32_t num_strata) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 200;
  options.num_strata = num_strata;
  options.seed = 20260730;
  return options;
}

void ExpectBitIdentical(const std::vector<EngineResult>& a,
                        const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].query.Describe());
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(
        std::memcmp(&a[i].reliability, &b[i].reliability, sizeof(double)), 0);
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size());
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(StratifiedSweepTest, StratumHelpersPartitionTheBudget) {
  // Counts tile [0, K) exactly, for even and ragged splits.
  for (const uint32_t total : {1u, 7u, 16u, 203u}) {
    for (const uint32_t strata : {1u, 3u, 4u, 16u, 300u}) {
      uint32_t sum = 0;
      for (uint32_t j = 0; j < strata; ++j) {
        EXPECT_EQ(StratumSampleOffset(total, strata, j), sum);
        sum += StratumSampleCount(total, strata, j);
      }
      EXPECT_EQ(sum, total);
    }
  }
  // S = 1 is the legacy path: the seed passes through untouched.
  EXPECT_EQ(StratumSeed(42, 0, 1), 42u);
  EXPECT_EQ(StratumSeed(42, 0, 0), 42u);
  // S > 1 derives distinct per-stratum streams.
  EXPECT_EQ(StratumSeed(42, 3, 8), HashCombineSeed(42, 3));
  EXPECT_NE(StratumSeed(42, 0, 8), StratumSeed(42, 1, 8));
}

TEST(StratifiedSweepTest, McSingleStratumMatchesLegacySweep) {
  // The S = 1 sweep is bit-identical to the pre-strata behaviour (same RNG
  // stream, same division), so existing seeds reproduce exactly.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 71);
  const std::vector<double> legacy =
      MonteCarloReliabilityFromSource(graph, 3, 500, 99).MoveValue();
  const std::vector<double> one_stratum =
      MonteCarloReliabilityFromSource(graph, 3, 500, 99, 1).MoveValue();
  ASSERT_EQ(legacy.size(), one_stratum.size());
  for (size_t v = 0; v < legacy.size(); ++v) {
    EXPECT_EQ(std::memcmp(&legacy[v], &one_stratum[v], sizeof(double)), 0);
  }
}

TEST(StratifiedSweepTest, McStratumMergeMatchesSerialStratifiedSweep) {
  // The engine contract: run each stratum on its own (fresh) replica, merge
  // hit counts in stratum order, divide by K — bit-identical to one serial
  // EstimateFromSource with the same num_strata. Ragged K exercises the
  // uneven budget split.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 72);
  const uint32_t kSamples = 203;
  const uint64_t kSeed = 0xFEED;
  for (const uint32_t strata : {1u, 4u, 16u}) {
    SCOPED_TRACE(strata);
    const std::vector<double> serial =
        MonteCarloReliabilityFromSource(graph, 5, kSamples, kSeed, strata)
            .MoveValue();
    std::vector<uint32_t> totals(graph.num_nodes(), 0);
    for (uint32_t j = 0; j < strata; ++j) {
      // A fresh estimator per stratum mimics strata landing on different
      // engine workers (each with private scratch).
      MonteCarloEstimator replica(graph);
      EstimateOptions options;
      options.num_samples = kSamples;
      options.seed = kSeed;
      const std::vector<uint32_t> hits =
          replica.EstimateSweepStratumHits(5, j, strata, options).MoveValue();
      ASSERT_EQ(hits.size(), graph.num_nodes());
      for (size_t v = 0; v < hits.size(); ++v) totals[v] += hits[v];
    }
    for (size_t v = 0; v < totals.size(); ++v) {
      const double merged =
          static_cast<double>(totals[v]) / static_cast<double>(kSamples);
      EXPECT_EQ(std::memcmp(&merged, &serial[v], sizeof(double)), 0)
          << "node " << v;
    }
  }
}

TEST(StratifiedSweepTest, BfsSharingStrataAreSliceInvariant) {
  // BFS Sharing strata are world slices of ONE generation: per-world
  // independence makes slice counts sum exactly to the whole-range counts,
  // so the merged sweep is bit-identical to the serial sweep for EVERY
  // stratum count — provided each participant prepared to the same seed.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 73);
  BfsSharingOptions bfs;
  bfs.index_samples = 257;  // deliberately not word-aligned
  const uint32_t kSamples = 193;
  const uint64_t kPrepare = 0xABCD;

  auto serial = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
  ASSERT_TRUE(serial->PrepareForNextQuery(kPrepare).ok());
  const std::vector<double> whole =
      serial->ReliabilityFromSource(0, kSamples).MoveValue();

  for (const uint32_t strata : {1u, 3u, 8u}) {
    SCOPED_TRACE(strata);
    std::vector<uint32_t> totals(graph.num_nodes(), 0);
    for (uint32_t j = 0; j < strata; ++j) {
      auto replica = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
      ASSERT_TRUE(replica->PrepareForNextQuery(kPrepare).ok());
      EstimateOptions options;
      options.num_samples = kSamples;
      const std::vector<uint32_t> hits =
          replica->EstimateSweepStratumHits(0, j, strata, options)
              .MoveValue();
      for (size_t v = 0; v < hits.size(); ++v) totals[v] += hits[v];
    }
    for (size_t v = 0; v < totals.size(); ++v) {
      const double merged =
          static_cast<double>(totals[v]) / static_cast<double>(kSamples);
      EXPECT_EQ(std::memcmp(&merged, &whole[v], sizeof(double)), 0)
          << "node " << v;
    }
  }
}

TEST(StratifiedSweepTest, McStratifiedStEstimateIsCanonicalInS) {
  // Plain s-t DoEstimate shares the stratified core: S = 1 is legacy, S > 1
  // changes the sampling plan but stays deterministic per (content, S).
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 74);
  MonteCarloEstimator a(graph);
  MonteCarloEstimator b(graph);
  for (const uint32_t strata : {1u, 4u, 16u}) {
    EstimateOptions options;
    options.num_samples = 300;
    options.seed = 7;
    options.num_strata = strata;
    const double first =
        a.Estimate(ReliabilityQuery{0, 9}, options).MoveValue().reliability;
    const double second =
        b.Estimate(ReliabilityQuery{0, 9}, options).MoveValue().reliability;
    EXPECT_EQ(std::memcmp(&first, &second, sizeof(double)), 0);
  }
}

/// Distinct parameterizations of one hot source: the stratified scheduler's
/// bread and butter (no query-level coalescing possible, every query needs
/// the same sweep).
std::vector<EngineQuery> HotSourceMix(NodeId source, uint32_t queries) {
  std::vector<EngineQuery> mix;
  for (uint32_t k = 1; k <= queries; ++k) {
    mix.push_back(EngineQuery::TopK(source, k));
  }
  return mix;
}

TEST(StratifiedSweepTest, EngineBitIdenticalAcrossThreadsAndSchedulers) {
  // The acceptance matrix: threads in {1, 2, 8} x S in {1, 4, 16} — every
  // config bit-identical to the bare estimator *for the same S*, however
  // the strata were stolen.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 75);
  std::vector<EngineQuery> queries = HotSourceMix(2, 6);
  const std::vector<EngineQuery> second_source = HotSourceMix(11, 4);
  queries.insert(queries.end(), second_source.begin(), second_source.end());
  queries.push_back(EngineQuery::ReliableSet(2, 0.3));
  queries.push_back(EngineQuery::St(2, 17));

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    for (const uint32_t strata : {1u, 4u, 16u}) {
      SCOPED_TRACE(strata);
      std::vector<EngineResult> reference;
      for (const size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        auto engine =
            QueryEngine::Create(graph, BaseOptions(threads, kind, strata))
                .MoveValue();
        if (reference.empty()) {
          reference = BareEstimatorAnswers(*engine, graph, queries);
          for (const EngineResult& r : reference) {
            ASSERT_TRUE(r.ok()) << r.status;
          }
        }
        ExpectBitIdentical(reference, engine->RunBatch(queries).MoveValue());
      }
    }
  }
}

TEST(StratifiedSweepTest, BfsSharingSweepsIgnoreStratumCount) {
  // The slice-invariance carries to the engine: BFS Sharing answers are
  // bit-identical across different S (MC answers deliberately are not).
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.3, 0.9, 76);
  const std::vector<EngineQuery> queries = HotSourceMix(4, 5);
  std::vector<EngineResult> reference;
  for (const uint32_t strata : {1u, 4u, 16u}) {
    SCOPED_TRACE(strata);
    auto engine =
        QueryEngine::Create(graph,
                            BaseOptions(4, EstimatorKind::kBfsSharing, strata))
            .MoveValue();
    std::vector<EngineResult> results = engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
    if (reference.empty()) {
      reference = std::move(results);
    } else {
      ExpectBitIdentical(reference, results);
    }
  }
}

TEST(StratifiedSweepTest, StrataAreCountedAndStolenUnderConcurrency) {
  const UncertainGraph graph = RandomSmallGraph(40, 150, 0.3, 0.9, 77);
  EngineOptions options = BaseOptions(8, EstimatorKind::kMonteCarlo, 16);
  options.num_samples = 10000;  // a sweep heavy enough to overlap claims
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(HotSourceMix(1, 16)).MoveValue();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  obs::MetricsRegistry& metrics = engine->metrics();
  const uint64_t strata_executed =
      CounterValue(metrics, "engine_strata_executed_total");
  const uint64_t strata_stolen =
      CounterValue(metrics, "engine_strata_stolen_total");
  // One sweep, all 16 strata executed through the scheduler.
  EXPECT_EQ(CounterValue(metrics, "engine_sweep_executed_total"), 1u);
  EXPECT_EQ(strata_executed, 16u);
  EXPECT_LE(strata_stolen, strata_executed);
  // Per-sweep latency was sampled.
  EXPECT_GT(metrics.GetHistogram("engine_sweep_latency_ns")
                ->Snapshot()
                .Quantile(0.95),
            0u);
  if (std::thread::hardware_concurrency() >= 2) {
    // With real parallelism the 15 coalesced waiters overwhelmingly steal
    // at least one of the 16 strata instead of all blocking.
    EXPECT_GT(strata_stolen, 0u);
  }
}

TEST(StratifiedSweepTest, StratifiedMcMatchesUnstratifiedWithinTolerance) {
  // Stratification re-plans the sampling but not the estimand: S = 8 and
  // S = 1 sweeps over the same budget agree within MC convergence bounds
  // (each node's difference of two independent K-sample proportions).
  const UncertainGraph graph = RandomSmallGraph(30, 100, 0.3, 0.9, 80);
  const uint32_t kSamples = 4000;
  const std::vector<double> flat =
      MonteCarloReliabilityFromSource(graph, 0, kSamples, 555, 1).MoveValue();
  const std::vector<double> stratified =
      MonteCarloReliabilityFromSource(graph, 0, kSamples, 555, 8).MoveValue();
  ASSERT_EQ(flat.size(), stratified.size());
  for (size_t v = 0; v < flat.size(); ++v) {
    // z = 5 on the two-estimate difference: sqrt(2 * p(1-p) / K) <=
    // sqrt(0.5 / K).
    const double bound =
        5.0 * std::sqrt(0.5 / static_cast<double>(kSamples)) + 1e-9;
    EXPECT_NEAR(flat[v], stratified[v], bound) << "node " << v;
  }
  // Engine parity: the engine's stratified answer equals the standalone API
  // given the same stratum count (the reproduction contract).
  EngineOptions options = BaseOptions(4, EstimatorKind::kMonteCarlo, 8);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const EngineQuery query = EngineQuery::TopK(0, 10);
  const std::vector<EngineResult> results =
      engine->RunBatch(std::vector<EngineQuery>{query}).MoveValue();
  ASSERT_TRUE(results[0].ok()) << results[0].status;
  const std::vector<ReliableTarget> expected =
      TopKReliableTargetsMonteCarlo(graph, 0, 10, options.num_samples,
                                    engine->QuerySeed(query),
                                    options.num_strata)
          .MoveValue();
  ASSERT_EQ(results[0].targets.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(results[0].targets[j].node, expected[j].node);
    EXPECT_EQ(std::memcmp(&results[0].targets[j].reliability,
                          &expected[j].reliability, sizeof(double)),
              0);
  }
}

TEST(StratifiedSweepTest, SharedPreparedStateReproducesSweepBitwise) {
  // The stratum-thief fast path: instead of re-running the leader's O(L·m)
  // prepare, a sibling replica adopts the leader's generation snapshot in
  // O(1) and reads literally the same worlds.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 83);
  BfsSharingOptions bfs;
  bfs.index_samples = 128;
  auto leader = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
  ASSERT_TRUE(leader->PrepareForNextQuery(0xBEEF).ok());
  const std::vector<double> expected =
      leader->ReliabilityFromSource(2, 100).MoveValue();

  auto thief = BfsSharingEstimator::Create(graph, bfs, 99).MoveValue();
  ASSERT_TRUE(thief->capabilities().prepared_generations);
  std::shared_ptr<const PreparedGeneration> state =
      leader->CurrentPreparedGeneration().MoveValue();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(thief->AdoptPreparedGeneration(state).ok());
  // Literally the same generation object, not a bit-identical rebuild.
  EXPECT_EQ(thief->SharedIndexIdentity(), leader->SharedIndexIdentity());
  const std::vector<double> adopted =
      thief->ReliabilityFromSource(2, 100).MoveValue();
  ASSERT_EQ(adopted.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(std::memcmp(&adopted[v], &expected[v], sizeof(double)), 0);
  }
  // The sharer's next inline prepare must not refill the shared worlds
  // under the thief: it swaps to a fresh generation instead.
  const void* shared_generation = leader->SharedIndexIdentity();
  ASSERT_TRUE(leader->PrepareForNextQuery(0xF00D).ok());
  EXPECT_NE(leader->SharedIndexIdentity(), shared_generation);
  EXPECT_EQ(thief->SharedIndexIdentity(), shared_generation);

  // MC has no shared prepared state (its prepare is a no-op already).
  MonteCarloEstimator mc(graph);
  EXPECT_FALSE(mc.capabilities().prepared_generations);
}

/// Every world bit of `index`, edge blocks back to back.
std::vector<uint64_t> WorldWords(const BfsSharingIndex& index) {
  const uint64_t* words = index.edge_words(0);
  return std::vector<uint64_t>(
      words, words + index.num_edges() * index.words_per_edge());
}

TEST(StratifiedSweepTest, AdoptedGenerationRefillsInPlaceOnceHandleDropped) {
  // A stratum thief adopts the generation its leader prepared, and the
  // leader then drops it, so the thief is the generation's last holder. Its
  // next inline prepare must refill that generation in place — same object,
  // no build — with the worlds a fresh replica draws for the seed.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 85);
  BfsSharingOptions bfs;
  bfs.index_samples = 128;
  auto replica = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
  {
    auto leader = BfsSharingEstimator::Create(graph, bfs, 2).MoveValue();
    ASSERT_TRUE(leader->PrepareForNextQuery(0xA11CE).ok());
    ASSERT_TRUE(replica
                    ->AdoptPreparedGeneration(
                        leader->CurrentPreparedGeneration().MoveValue())
                    .ok());
  }
  const void* adopted = replica->SharedIndexIdentity();
  const uint64_t builds = BfsSharingIndex::BuildCount();
  ASSERT_TRUE(replica->PrepareForNextQuery(0xB0B).ok());
  EXPECT_EQ(replica->SharedIndexIdentity(), adopted);
  EXPECT_EQ(BfsSharingIndex::BuildCount(), builds);

  auto fresh = BfsSharingEstimator::Create(graph, bfs, 7).MoveValue();
  ASSERT_TRUE(fresh->PrepareForNextQuery(0xB0B).ok());
  EXPECT_EQ(WorldWords(*replica->shared_index()),
            WorldWords(*fresh->shared_index()));
}

TEST(StratifiedSweepTest, GenerationAnotherReplicaHoldsIsNeverRefilledInPlace) {
  // A sweep leader and its stratum thief read one generation. Whichever
  // prepares next moves to a new generation and leaves the other's worlds
  // untouched. The one left behind is then the last holder, so its own next
  // prepare refills in place again.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 86);
  BfsSharingOptions bfs;
  bfs.index_samples = 128;
  for (const bool leader_moves_first : {true, false}) {
    SCOPED_TRACE(leader_moves_first);
    auto leader = BfsSharingEstimator::Create(graph, bfs, 1).MoveValue();
    auto thief = BfsSharingEstimator::Create(graph, bfs, 99).MoveValue();
    ASSERT_TRUE(leader->PrepareForNextQuery(0xBEEF).ok());
    ASSERT_TRUE(thief
                    ->AdoptPreparedGeneration(
                        leader->CurrentPreparedGeneration().MoveValue())
                    .ok());
    const void* shared = leader->SharedIndexIdentity();
    ASSERT_EQ(thief->SharedIndexIdentity(), shared);
    const std::vector<uint64_t> shared_worlds =
        WorldWords(*leader->shared_index());

    BfsSharingEstimator& mover = leader_moves_first ? *leader : *thief;
    BfsSharingEstimator& sibling = leader_moves_first ? *thief : *leader;
    ASSERT_TRUE(mover.PrepareForNextQuery(0xF00D).ok());
    EXPECT_NE(mover.SharedIndexIdentity(), shared);
    EXPECT_EQ(sibling.SharedIndexIdentity(), shared);
    EXPECT_EQ(WorldWords(*sibling.shared_index()), shared_worlds);

    const uint64_t builds = BfsSharingIndex::BuildCount();
    ASSERT_TRUE(sibling.PrepareForNextQuery(0xF00D).ok());
    EXPECT_EQ(sibling.SharedIndexIdentity(), shared);
    EXPECT_EQ(BfsSharingIndex::BuildCount(), builds);
    EXPECT_EQ(WorldWords(*sibling.shared_index()),
              WorldWords(*mover.shared_index()));
  }
}

TEST(StratifiedSweepTest, EngineStratumThiefAdoptsTheLeadersGeneration) {
  // A thief that re-prepared its own replica instead of adopting the
  // flight's generation would answer identically, so only the generations
  // the replicas end up reading can tell. Two workers: one leads
  // top-k(0, 5)'s sweep; the other first runs an s-t query, which leaves it
  // a generation of its own, then joins the sweep with top-k(0, 10) and
  // steals strata. Induced latency on every stratum and on the s-t query
  // makes the leader prepare long before the thief arrives. A thief that
  // did not adopt would resample a generation of its own inline. Afterwards
  // both replicas must read the leader's generation.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 87);
  const std::vector<EngineQuery> queries = {
      EngineQuery::TopK(0, 5), EngineQuery::St(1, 2), EngineQuery::TopK(0, 10)};

  EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing, 8);
  const std::vector<EngineResult> expected = BareEstimatorAnswers(
      *QueryEngine::Create(graph, options).MoveValue(), graph, queries);

  FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.probability[static_cast<size_t>(FaultSite::kInducedLatency)] = 1.0;
  plan.latency_us = 20000;
  FaultInjector::Global().Configure(plan);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const IndexMemoryReport before = engine->IndexMemory();
  Result<std::vector<EngineResult>> results = engine->RunBatch(queries);
  const uint64_t strata_stolen =
      CounterValue(engine->metrics(), "engine_strata_stolen_total");
  const IndexMemoryReport after = engine->IndexMemory();
  engine.reset();
  FaultInjector::Global().Disable();

  ASSERT_TRUE(results.ok()) << results.status();
  for (const EngineResult& r : *results) ASSERT_TRUE(r.ok()) << r.status;
  ExpectBitIdentical(*results, expected);
  EXPECT_GT(strata_stolen, 0u);
  // Create builds no generation; each replica has prepared since, and a
  // thief that adopted reads the very generation its leader resampled, so
  // exactly one generation is held, by both replicas, and counted once. It
  // holds the budget's K = 200 worlds, in ceil(200 / 64) = 4 words per edge.
  EXPECT_EQ(before.shared_indexes, 0u);
  EXPECT_EQ(before.total_bytes(), 0u);
  EXPECT_EQ(after.shared_indexes, 1u);
  EXPECT_EQ(after.shared_bytes, graph.num_edges() * 4 * sizeof(uint64_t));
  EXPECT_EQ(after.replica_bytes, 0u);
}

TEST(StratifiedSweepTest, EngineGeometricFillsMatchAWholeWidthEstimator) {
  // Probabilities down to 0.05, so about a quarter of the edges fill
  // geometrically (p < 0.25), the last edge in id order among them, and a
  // budget K = 200 that is not a multiple of 64: the replicas' generations
  // store 4 of L = 1500's 24 words per edge, and a geometric run that wrote
  // at or past bit 256 would write past the generation. At S = 1 and 4 the
  // engine's answers equal a bare whole-width estimator's.
  constexpr uint32_t kNodes = 24;
  Rng rng(88);
  GraphBuilder builder(kNodes);
  for (uint32_t i = 0; i < 70; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(kNodes));
    const NodeId v =
        static_cast<NodeId>((u + 1 + rng.UniformInt(kNodes - 1)) % kNodes);
    builder.AddEdge(u, v, i + 1 == 70 ? 0.05 : 0.05 + 0.85 * rng.NextDouble())
        .CheckOK();
  }
  const UncertainGraph graph = builder.Build().MoveValue();
  ASSERT_LT(graph.prob(graph.num_edges() - 1), 0.25);
  std::vector<EngineQuery> queries = HotSourceMix(3, 4);
  queries.push_back(EngineQuery::ReliableSet(9, 0.2));
  queries.push_back(EngineQuery::St(3, 17));
  queries.push_back(EngineQuery::St(12, 5));
  for (const uint32_t strata : {1u, 4u}) {
    SCOPED_TRACE(strata);
    EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing, strata);
    ASSERT_EQ(options.num_samples % 64, 8u);
    ASSERT_EQ(options.factory.bfs_sharing.index_samples, 1500u);
    auto engine = QueryEngine::Create(graph, options).MoveValue();
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
    ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries), results);
  }
}

TEST(StratifiedSweepTest, FlightPeakMemoryReachesEveryParticipant) {
  // Every flight participant — the leader and any joiner — reports the
  // sweep's tracked working-set peak, not just its own derivation scan
  // (sweep queries report the sweep's footprint). Some query leads the one
  // flight whatever the thread interleaving, so at least it carries the
  // full peak.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 84);
  EngineOptions options = BaseOptions(2, EstimatorKind::kMonteCarlo, 4);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(HotSourceMix(3, 8)).MoveValue();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  // The MC stratum working set (hit counts + epoch marks + BFS queue,
  // 3 x uint32 per node) exceeds the bare derivation scan (n doubles).
  const size_t derive_only = graph.num_nodes() * sizeof(double);
  EXPECT_GT(engine->metrics().GetGauge("engine_peak_memory_bytes")->Value(),
            static_cast<double>(derive_only));
}

}  // namespace
}  // namespace relcomp
