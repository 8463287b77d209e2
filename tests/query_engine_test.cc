#include "engine/query_engine.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reliability/estimator_factory.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::BareEstimatorAnswers;
using ::relcomp::testing::CounterValue;
using ::relcomp::testing::DiamondGraph;
using ::relcomp::testing::QueriesRecorded;
using ::relcomp::testing::RandomSmallGraph;

std::vector<ReliabilityQuery> AllPairsWorkload(const UncertainGraph& graph,
                                               size_t limit) {
  std::vector<ReliabilityQuery> queries;
  for (NodeId s = 0; s < graph.num_nodes() && queries.size() < limit; ++s) {
    for (NodeId t = 0; t < graph.num_nodes() && queries.size() < limit; ++t) {
      if (s != t) queries.push_back({s, t});
    }
  }
  return queries;
}

EngineOptions BaseOptions(size_t threads, EstimatorKind kind) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 400;
  options.seed = 20190410;
  return options;
}

void ExpectBitIdentical(const std::vector<EngineResult>& a,
                        const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise double comparison: scheduling must not perturb even the last
    // ulp of any estimate.
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0)
        << "query " << i << ": " << a[i].reliability << " vs "
        << b[i].reliability;
    EXPECT_EQ(a[i].num_samples, b[i].num_samples) << "query " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "query " << i;
  }
}

TEST(QueryEngineTest, BatchMatchesBareEstimatorBitwise) {
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 40);

  auto engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();

  // Serial reference: a bare MC estimator fed the engine's derived seeds.
  auto reference =
      MakeEstimator(EstimatorKind::kMonteCarlo, graph).MoveValue();
  for (size_t i = 0; i < queries.size(); ++i) {
    EstimateOptions options;
    options.num_samples = 400;
    options.seed = engine->QuerySeed(queries[i]);
    const EstimateResult expected =
        reference->Estimate(queries[i], options).MoveValue();
    EXPECT_EQ(std::memcmp(&results[i].reliability, &expected.reliability,
                          sizeof(double)),
              0)
        << "query " << i;
  }
}

TEST(QueryEngineTest, DeterministicAcrossThreadCounts) {
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.1, 0.9, 23);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 60);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing,
        EstimatorKind::kRecursiveStratified}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto serial = QueryEngine::Create(graph, BaseOptions(1, kind)).MoveValue();
    const std::vector<EngineResult> expected =
        serial->RunBatch(queries).MoveValue();
    // 1/2/8 threads: all bit-identical.
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      auto engine =
          QueryEngine::Create(graph, BaseOptions(threads, kind)).MoveValue();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      ExpectBitIdentical(expected, results);
    }
  }
}

TEST(QueryEngineTest, SharedIndexRepliesMatchIndependentPerReplicaBuilds) {
  // The engine's replicas share one immutable BFS Sharing index; a bare
  // estimator built independently (its own index) and re-armed with the
  // engine's prepare seed must reproduce every engine answer bitwise — the
  // shared-index refactor changes memory, never results.
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 57);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 30);
  for (const size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    auto engine =
        QueryEngine::Create(graph, BaseOptions(threads, EstimatorKind::kBfsSharing))
            .MoveValue();
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();
    auto bare = MakeEstimator(EstimatorKind::kBfsSharing, graph,
                              engine->options().factory)
                    .MoveValue();
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(bare->PrepareForNextQuery(engine->PrepareSeed(queries[i])).ok());
      EstimateOptions opts;
      opts.num_samples = engine->options().num_samples;
      opts.seed = engine->QuerySeed(queries[i]);
      const EstimateResult expected =
          bare->Estimate(queries[i], opts).MoveValue();
      EXPECT_EQ(std::memcmp(&results[i].reliability, &expected.reliability,
                            sizeof(double)),
                0)
          << "query " << i;
    }
  }
}

TEST(QueryEngineTest, SharedIndexIsReportedOnceAcrossReplicas) {
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.2, 0.8, 58);
  const EngineOptions options = BaseOptions(8, EstimatorKind::kProbTree);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  auto single =
      MakeEstimator(EstimatorKind::kProbTree, graph, options.factory)
          .MoveValue();
  // Eight replicas cost one index, not eight: the deduped footprint equals a
  // single estimator's index (the per-replica baseline would be 8x).
  const IndexMemoryReport report = engine->IndexMemory();
  EXPECT_EQ(report.shared_indexes, 1u);
  EXPECT_EQ(report.shared_bytes, single->IndexMemoryBytes());
  EXPECT_EQ(report.replica_bytes, 0u);
  EXPECT_EQ(report.total_bytes(), single->IndexMemoryBytes());
  // Index-free kinds report an empty footprint.
  auto mc_engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(mc_engine->IndexMemory().total_bytes(), 0u);
  EXPECT_EQ(mc_engine->IndexMemory().shared_indexes, 0u);
}

TEST(QueryEngineTest, BfsSharingCreateBuildsNoGeneration) {
  // Every computed answer prepares its replica first, so Create samples no
  // worlds at any thread count and the engine holds no index until then.
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.2, 0.8, 59);
  EngineOptions options = BaseOptions(8, EstimatorKind::kBfsSharing);
  options.factory.bfs_sharing.index_samples = 400;
  const uint64_t builds_before = BfsSharingIndex::BuildCount();
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  EXPECT_EQ(BfsSharingIndex::BuildCount() - builds_before, 0u);
  EXPECT_EQ(engine->IndexMemory().total_bytes(), 0u);
  EXPECT_EQ(engine->IndexMemory().shared_indexes, 0u);
  EXPECT_EQ(engine->num_threads(), 8u);
}

TEST(QueryEngineTest, CreateRejectsBudgetAboveIndexedWorlds) {
  // A BFS Sharing budget K above the index's L worlds would fail every
  // s != t query after a full prepare, so Create refuses it.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 62);
  EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing);
  options.factory.bfs_sharing.index_samples = 100;
  options.num_samples = 101;
  const Result<std::unique_ptr<QueryEngine>> refused =
      QueryEngine::Create(graph, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  options.num_samples = 100;
  auto engine = QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::vector<EngineResult> results =
      (*engine)->RunBatch(AllPairsWorkload(graph, 4)).MoveValue();
  for (const EngineResult& r : results) EXPECT_TRUE(r.ok()) << r.status;
}

TEST(QueryEngineTest, CoalescingCollapsesConcurrentIdenticalMisses) {
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.2, 0.8, 61);
  EngineOptions options = BaseOptions(8, EstimatorKind::kMonteCarlo);
  options.num_samples = 2000;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  // 32 copies of one query land on 8 workers at once. The cache-or-flight
  // rendezvous guarantees exactly one estimator invocation; every other copy
  // is a cache hit or a coalesced share of the leader's computation.
  const std::vector<EngineQuery> queries(32, EngineQuery::St(0, 17));
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  ASSERT_EQ(results.size(), queries.size());
  obs::MetricsRegistry& metrics = engine->metrics();
  EXPECT_EQ(QueriesRecorded(metrics), queries.size());
  EXPECT_EQ(CounterValue(metrics, "engine_executed_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "engine_coalesced_total") +
                CounterValue(metrics, "result_cache_hits_total"),
            queries.size() - 1);
  size_t leaders = 0;
  for (const EngineResult& result : results) {
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(std::memcmp(&result.reliability, &results[0].reliability,
                          sizeof(double)),
              0);
    if (!result.cache_hit && !result.coalesced) ++leaders;
  }
  EXPECT_EQ(leaders, 1u);

  // The shared answer is the bare estimator's.
  ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries), results);
}

TEST(QueryEngineTest, PerQueryStatusIsolatesFailures) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 62);
  // BFS Sharing answers no distance-constrained query: each fails alone
  // with NotSupported, while the s == t queries between them answer 1.0.
  // The batch must carry both outcomes side by side.
  auto engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kBfsSharing))
          .MoveValue();

  const std::vector<EngineQuery> queries = {
      EngineQuery::Distance(0, 5, 3), EngineQuery::St(3, 3),
      EngineQuery::Distance(1, 7, 3), EngineQuery::St(4, 4)};
  const Result<std::vector<EngineResult>> batch = engine->RunBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::vector<EngineResult>& results = *batch;
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kNotSupported);
  EXPECT_TRUE(results[1].ok());
  EXPECT_DOUBLE_EQ(results[1].reliability, 1.0);
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  EXPECT_DOUBLE_EQ(results[3].reliability, 1.0);
  EXPECT_EQ(CounterValue(engine->metrics(), "engine_failures_total"), 2u);

  // Stream cycle: finished answers survive failing neighbors the same way.
  for (const EngineQuery& query : queries) {
    ASSERT_TRUE(engine->Submit(query).ok());
  }
  const std::vector<EngineResult> stream = engine->Drain().MoveValue();
  ASSERT_EQ(stream.size(), queries.size());
  EXPECT_FALSE(stream[0].ok());
  EXPECT_TRUE(stream[1].ok());
  EXPECT_DOUBLE_EQ(stream[1].reliability, 1.0);
}

TEST(QueryEngineTest, TrueSpanTracksFirstStartToLastEnd) {
  const UncertainGraph graph = RandomSmallGraph(16, 48, 0.3, 0.9, 63);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 20);
  EngineOptions options = BaseOptions(2, EstimatorKind::kMonteCarlo);
  options.num_samples = 64;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  obs::MetricsRegistry& metrics = engine->metrics();
  const obs::Gauge& span = *metrics.GetGauge("engine_span_seconds");
  const obs::Gauge& wall = *metrics.GetGauge("engine_wall_seconds");

  EXPECT_EQ(span.Value(), 0.0);
  ASSERT_EQ(engine->RunBatch(queries).MoveValue().size(), queries.size());
  ASSERT_EQ(engine->RunBatch(queries).MoveValue().size(), queries.size());
  EXPECT_GT(span.Value(), 0.0);
  // One client, two sequential batches: the span covers both calls plus the
  // gap between them, so it is at least the summed per-call wall time.
  EXPECT_GE(span.Value(), wall.Value() * 0.99);
  EXPECT_EQ(QueriesRecorded(metrics), 2 * queries.size());

  // Two clients: each batch contributes its full duration to wall_seconds
  // (over-counting under overlap), while the span measures real elapsed
  // time — the exact denominator for aggregate throughput. Whether or not
  // the scheduler actually overlaps them, span >= wall/2 always holds
  // (equality-ish at full overlap, span >= wall when serialized).
  engine->ResetStats();
  std::thread client_a([&] { engine->RunBatch(queries).MoveValue(); });
  std::thread client_b([&] { engine->RunBatch(queries).MoveValue(); });
  client_a.join();
  client_b.join();
  EXPECT_EQ(QueriesRecorded(metrics), 2 * queries.size());
  EXPECT_GT(span.Value(), 0.0);
  EXPECT_GE(span.Value(), wall.Value() * 0.49);
  engine->ResetStats();
  EXPECT_EQ(span.Value(), 0.0);
}

TEST(QueryEngineTest, CacheDoesNotChangeResults) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 5);
  std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 30);
  // Duplicate the workload so half the queries are repeats.
  const size_t distinct = queries.size();
  queries.insert(queries.end(), queries.begin(), queries.begin() + distinct);

  auto cached =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> with_cache =
      cached->RunBatch(queries).MoveValue();
  // Cached or computed, every answer is the bare estimator's.
  std::vector<EngineQuery> engine_queries;
  for (const ReliabilityQuery& query : queries) {
    engine_queries.push_back(EngineQuery(query));
  }
  ExpectBitIdentical(BareEstimatorAnswers(*cached, graph, engine_queries),
                     with_cache);

  // A repeated query returns the same estimate as its first occurrence.
  for (size_t i = 0; i < distinct; ++i) {
    EXPECT_DOUBLE_EQ(with_cache[i].reliability,
                     with_cache[i + distinct].reliability);
  }
  // Every distinct query missed once; every repeat could hit (a repeat only
  // misses if it raced its twin's first execution).
  const CacheStats stats = cached->cache()->Stats();
  EXPECT_EQ(stats.lookups(), queries.size());
  EXPECT_GE(stats.misses, distinct);
}

TEST(QueryEngineTest, RepeatedBatchIsServedFromCache) {
  const UncertainGraph graph = DiamondGraph(0.6);
  const std::vector<ReliabilityQuery> queries = {{0, 3}, {0, 3}, {1, 3}};
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> first =
      engine->RunBatch(queries).MoveValue();
  const std::vector<EngineResult> second =
      engine->RunBatch(queries).MoveValue();
  ExpectBitIdentical(first, second);
  for (const EngineResult& result : second) EXPECT_TRUE(result.cache_hit);
}

TEST(QueryEngineTest, StreamMatchesBatch) {
  const UncertainGraph graph = RandomSmallGraph(16, 48, 0.3, 0.9, 99);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 25);

  auto batch_engine = QueryEngine::Create(
                          graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
                          .MoveValue();
  const std::vector<EngineResult> batch =
      batch_engine->RunBatch(queries).MoveValue();

  auto stream_engine = QueryEngine::Create(
                           graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
                           .MoveValue();
  for (const ReliabilityQuery& query : queries) {
    ASSERT_TRUE(stream_engine->Submit(query).ok());
  }
  const std::vector<EngineResult> stream =
      stream_engine->Drain().MoveValue();
  ExpectBitIdentical(batch, stream);

  // Drain is a reset: a second drain returns nothing.
  EXPECT_TRUE(stream_engine->Drain().MoveValue().empty());
}

TEST(QueryEngineTest, SeedsFollowTheLiteralDerivation) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  EngineOptions options = BaseOptions(2, EstimatorKind::kMonteCarlo);
  // S splits the budget of one seed; it must not fold into the seed.
  options.num_strata = 2;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  // The derivation bare-estimator replays depend on,
  // reproduced literally: st / distance fold the query content then
  // (kind, K); sweep kinds fold (sweep tag, source, kind, K); the prepare
  // seed is the query seed under the "pre" tag.
  const EngineQuery st = EngineQuery::St(1, 5);
  uint64_t expected = HashWorkloadQuery(options.seed, st);
  expected = HashCombineSeed(expected, static_cast<uint64_t>(options.kind));
  expected = HashCombineSeed(expected, options.num_samples);
  EXPECT_EQ(engine->QuerySeed(st), expected);
  EXPECT_EQ(engine->PrepareSeed(st), HashCombineSeed(expected, 0x707265ULL));

  const EngineQuery top_k = EngineQuery::TopK(3, 4);
  uint64_t sweep = HashCombineSeed(options.seed, 0x73776570ULL);
  sweep = HashCombineSeed(sweep, top_k.source);
  sweep = HashCombineSeed(sweep, static_cast<uint64_t>(options.kind));
  sweep = HashCombineSeed(sweep, options.num_samples);
  EXPECT_EQ(engine->QuerySeed(top_k), sweep);
  EXPECT_EQ(engine->SweepSeed(top_k.source), sweep);
  EXPECT_EQ(engine->PrepareSeed(top_k), HashCombineSeed(sweep, 0x707265ULL));

  // Every query runs the static plan.
  for (const EngineQuery& query : {st, top_k}) {
    const QueryPlan plan = engine->PlanFor(query);
    EXPECT_EQ(plan.kind, options.kind);
    EXPECT_EQ(plan.num_samples, options.num_samples);
    EXPECT_EQ(plan.num_strata, options.num_strata);
  }
}

TEST(QueryEngineTest, RejectsInvalidQueries) {
  const UncertainGraph graph = DiamondGraph();
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const Result<std::vector<EngineResult>> batch =
      engine->RunBatch({{0, 3}, {0, 99}});
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Submit({99, 0}).code(), StatusCode::kInvalidArgument);

  EngineOptions zero_samples = BaseOptions(1, EstimatorKind::kMonteCarlo);
  zero_samples.num_samples = 0;
  EXPECT_EQ(QueryEngine::Create(graph, zero_samples).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, StatsTrackThroughputAndLatency) {
  const UncertainGraph graph = RandomSmallGraph(16, 48, 0.3, 0.9, 3);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 20);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  ASSERT_EQ(engine->RunBatch(queries).MoveValue().size(), queries.size());
  obs::MetricsRegistry& metrics = engine->metrics();
  const obs::HistogramSnapshot latency =
      metrics.GetHistogram("engine_query_latency_ns")->Snapshot();
  EXPECT_EQ(latency.count, queries.size());
  EXPECT_GT(metrics.GetGauge("engine_wall_seconds")->Value(), 0.0);
  EXPECT_GE(latency.Quantile(0.99), latency.Quantile(0.50));
  EXPECT_GE(latency.max, latency.Quantile(0.99));
  engine->ResetStats();
  EXPECT_EQ(QueriesRecorded(metrics), 0u);
}

TEST(QueryEngineTest, ConcurrentClientsShareOneEngine) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 41);
  const std::vector<ReliabilityQuery> queries = AllPairsWorkload(graph, 30);
  EngineOptions options = BaseOptions(4, EstimatorKind::kMonteCarlo);
  options.num_samples = 64;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  // Reference from a quiet engine run.
  const std::vector<EngineResult> expected =
      engine->RunBatch(queries).MoveValue();

  // Two clients hammer RunBatch concurrently; a third streams. Each batch
  // must return its own results untouched by the others' load.
  std::vector<std::vector<EngineResult>> batches(2);
  std::thread client_a([&] {
    for (int i = 0; i < 5; ++i) batches[0] = engine->RunBatch(queries).MoveValue();
  });
  std::thread client_b([&] {
    for (int i = 0; i < 5; ++i) batches[1] = engine->RunBatch(queries).MoveValue();
  });
  client_a.join();
  client_b.join();
  ExpectBitIdentical(expected, batches[0]);
  ExpectBitIdentical(expected, batches[1]);

  for (const ReliabilityQuery& query : queries) {
    ASSERT_TRUE(engine->Submit(query).ok());
  }
  ExpectBitIdentical(expected, engine->Drain().MoveValue());
}

TEST(QueryEngineTest, StressTenThousandQueries) {
  const UncertainGraph graph = RandomSmallGraph(40, 120, 0.2, 0.9, 77);
  // 10k queries over ~1.5k distinct pairs: heavy repetition, small queue to
  // exercise backpressure, more threads than cores is fine.
  std::vector<ReliabilityQuery> queries;
  queries.reserve(10000);
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(40));
    NodeId t = static_cast<NodeId>(rng.UniformInt(40));
    if (s == t) t = (t + 1) % 40;
    queries.push_back({s, t});
  }

  EngineOptions options = BaseOptions(8, EstimatorKind::kMonteCarlo);
  options.num_samples = 64;
  options.queue_capacity = 32;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineResult> first =
      engine->RunBatch(queries).MoveValue();
  ASSERT_EQ(first.size(), queries.size());
  for (const EngineResult& result : first) {
    EXPECT_GE(result.reliability, 0.0);
    EXPECT_LE(result.reliability, 1.0);
  }

  // A fresh engine (cold cache, different thread count) reproduces the batch.
  EngineOptions rerun_options = options;
  rerun_options.num_threads = 3;
  auto rerun_engine = QueryEngine::Create(graph, rerun_options).MoveValue();
  const std::vector<EngineResult> second =
      rerun_engine->RunBatch(queries).MoveValue();
  ExpectBitIdentical(first, second);

  EXPECT_EQ(QueriesRecorded(engine->metrics()), 10000u);
  EXPECT_GT(CounterValue(engine->metrics(), "result_cache_hits_total"), 0u);
}

}  // namespace
}  // namespace relcomp
