// Mixed-workload coverage for the workload-polymorphic QueryEngine: one
// engine answering s-t, top-k, reliable-set, and distance-constrained
// queries in a single batch, with the determinism, cache-isolation, and
// standalone-equivalence contracts of src/engine/README.md.

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "eval/query_gen.h"
#include "reliability/distance_constrained.h"
#include "reliability/estimator_factory.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "reliability/workload.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::CounterValue;
using ::relcomp::testing::QueriesRecorded;
using ::relcomp::testing::RandomSmallGraph;

EngineOptions BaseOptions(size_t threads, EstimatorKind kind,
                          bool cache = true) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 300;
  options.seed = 20190411;
  options.enable_cache = cache;
  return options;
}

/// A deterministic mixed batch touching every workload kind.
std::vector<EngineQuery> MixedBatch(const UncertainGraph& graph,
                                    size_t limit) {
  std::vector<EngineQuery> queries;
  for (NodeId s = 0; s < graph.num_nodes() && queries.size() < limit; ++s) {
    const NodeId t = (s + 3) % graph.num_nodes();
    if (s == t) continue;
    queries.push_back(EngineQuery::St(s, t));
    queries.push_back(EngineQuery::TopK(s, 5));
    queries.push_back(EngineQuery::ReliableSet(s, 0.25));
    queries.push_back(EngineQuery::Distance(s, t, 3));
  }
  queries.resize(std::min(queries.size(), limit));
  return queries;
}

void ExpectBitIdenticalResults(const std::vector<EngineResult>& a,
                               const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].query.Describe());
    EXPECT_EQ(a[i].status.code(), b[i].status.code()) << "query " << i;
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0)
        << "query " << i;
    EXPECT_EQ(a[i].num_samples, b[i].num_samples) << "query " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "query " << i;
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size()) << "query " << i;
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(EngineWorkloadTest, MixedBatchDeterministicAcrossThreadCounts) {
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.2, 0.9, 31);
  const std::vector<EngineQuery> queries = MixedBatch(graph, 60);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto serial = QueryEngine::Create(graph, BaseOptions(1, kind)).MoveValue();
    const std::vector<EngineResult> expected =
        serial->RunBatch(queries).MoveValue();
    // 1/2/8 threads x cache on/off x coalescing on/off: all bit-identical.
    for (const size_t threads : {1u, 2u, 8u}) {
      for (const bool cache : {true, false}) {
        for (const bool coalescing : {true, false}) {
          SCOPED_TRACE(threads);
          SCOPED_TRACE(cache);
          SCOPED_TRACE(coalescing);
          EngineOptions options = BaseOptions(threads, kind, cache);
          options.enable_coalescing = coalescing;
          auto engine = QueryEngine::Create(graph, options).MoveValue();
          const std::vector<EngineResult> results =
              engine->RunBatch(queries).MoveValue();
          ExpectBitIdenticalResults(expected, results);
        }
      }
    }
  }
}

TEST(EngineWorkloadTest, TopKMatchesStandaloneApisBitwise) {
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 33);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto engine = QueryEngine::Create(graph, BaseOptions(4, kind)).MoveValue();
    std::vector<EngineQuery> queries;
    for (NodeId s = 0; s < 8; ++s) queries.push_back(EngineQuery::TopK(s, 6));
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();

    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status;
      std::vector<ReliableTarget> expected;
      if (kind == EstimatorKind::kMonteCarlo) {
        expected = TopKReliableTargetsMonteCarlo(
                       graph, queries[i].source, queries[i].k,
                       engine->options().num_samples,
                       engine->QuerySeed(queries[i]))
                       .MoveValue();
      } else {
        // A bare BFS Sharing estimator re-armed with the engine's prepare
        // seed reproduces the engine's sweep exactly.
        auto bare = BfsSharingEstimator::Create(
                        graph, engine->options().factory.bfs_sharing,
                        engine->options().factory.index_seed)
                        .MoveValue();
        ASSERT_TRUE(
            bare->PrepareForNextQuery(engine->PrepareSeed(queries[i])).ok());
        expected = TopKReliableTargetsBfsSharing(
                       *bare, queries[i].source, queries[i].k,
                       engine->options().num_samples)
                       .MoveValue();
      }
      ASSERT_EQ(results[i].targets.size(), expected.size()) << "query " << i;
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(results[i].targets[j].node, expected[j].node);
        EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                              &expected[j].reliability, sizeof(double)),
                  0);
      }
    }
  }
}

TEST(EngineWorkloadTest, ReliableSetMatchesStandaloneApisBitwise) {
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 34);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  std::vector<EngineQuery> queries;
  for (NodeId s = 0; s < 8; ++s) {
    queries.push_back(EngineQuery::ReliableSet(s, 0.3));
  }
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status;
    const ReliableSetResult expected =
        ReliableSetMonteCarlo(graph, queries[i].source, queries[i].eta,
                              engine->options().num_samples,
                              engine->QuerySeed(queries[i]))
            .MoveValue();
    ASSERT_EQ(results[i].targets.size(), expected.members.size());
    for (size_t j = 0; j < expected.members.size(); ++j) {
      EXPECT_EQ(results[i].targets[j].node, expected.members[j].node);
      EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                            &expected.members[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(EngineWorkloadTest, DistanceMatchesStandaloneSamplerBitwise) {
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 35);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  std::vector<EngineQuery> queries;
  for (NodeId s = 0; s < 8; ++s) {
    queries.push_back(EngineQuery::Distance(s, (s + 5) % 24, 3));
  }
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  DistanceConstrainedMonteCarlo standalone(graph);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status;
    const double expected =
        standalone
            .Estimate(DistanceConstrainedQuery{queries[i].source,
                                               queries[i].target,
                                               queries[i].max_hops},
                      engine->options().num_samples,
                      engine->QuerySeed(queries[i]))
            .MoveValue();
    EXPECT_EQ(std::memcmp(&results[i].reliability, &expected, sizeof(double)),
              0)
        << "query " << i;
  }
}

TEST(EngineWorkloadTest, CacheKeysIsolateWorkloadKinds) {
  // Same source/target/parameter bits, different workload tags: four
  // distinct cache entries, four executions, zero cross-workload hits.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 36);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  // t == k == max_hops == 5, eta with a tiny payload-field overlap too.
  const std::vector<EngineQuery> queries = {
      EngineQuery::St(0, 5), EngineQuery::TopK(0, 5),
      EngineQuery::ReliableSet(0, 0.5), EngineQuery::Distance(0, 5, 5)};
  const std::vector<EngineResult> first =
      engine->RunBatch(queries).MoveValue();
  for (const EngineResult& r : first) {
    EXPECT_TRUE(r.ok()) << r.status;
    EXPECT_FALSE(r.cache_hit);
  }
  // St and distance seeds fold the workload tag and every field, so they
  // differ from each other and from the sweep seed. The two sweep kinds
  // (top-k, reliable-set) over one source share the per-source sweep seed by
  // design — that is the sweep-sharing contract — while their cache entries
  // stay distinct (the full EngineQuery is in the key).
  EXPECT_NE(first[0].seed, first[1].seed);
  EXPECT_EQ(first[1].seed, first[2].seed);
  EXPECT_EQ(first[1].seed, engine->SweepSeed(0));
  EXPECT_NE(first[2].seed, first[3].seed);
  EXPECT_NE(first[0].seed, first[3].seed);

  const std::vector<EngineResult> second =
      engine->RunBatch(queries).MoveValue();
  for (const EngineResult& r : second) EXPECT_TRUE(r.cache_hit);
  ExpectBitIdenticalResults(first, second);
  obs::MetricsRegistry& metrics = engine->metrics();
  EXPECT_EQ(CounterValue(metrics, "engine_executed_total"), queries.size());
  EXPECT_EQ(engine->cache()->Stats().hits, queries.size());
  // Exactly one EstimateFromSource ran for source 0's sweep — led either by
  // the warm-ahead scout (source 0 appears twice among the sweep kinds, so
  // the scout pass warms it) or by the first sweep-kind query; the other
  // sweep queries derived from the memo or the in-flight sweep. The
  // arithmetic: each of the two sweep queries resolved as a hit/coalesced
  // share unless it led the sweep itself, and a scout-led sweep adds one
  // scout_warms to account for the leaderless execution.
  EXPECT_EQ(CounterValue(metrics, "engine_sweep_executed_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "engine_sweep_hits_total") +
                CounterValue(metrics, "engine_sweep_coalesced_total"),
            1u + CounterValue(metrics, "engine_scout_warms_total"));
}

TEST(EngineWorkloadTest, StaleUnusedFieldsDoNotChangeQueryIdentity) {
  // Equality and hashing consider only the fields the workload tag uses: a
  // hand-built query carrying stale values in unused fields is the same
  // query (same seed, same cache key) as its factory-built twin.
  EngineQuery stale = EngineQuery::St(3, 9);
  stale.workload = WorkloadKind::kTopK;
  stale.k = 5;  // target = 9 left over from the St factory
  const EngineQuery clean = EngineQuery::TopK(3, 5);
  EXPECT_TRUE(stale == clean);
  EXPECT_EQ(HashWorkloadQuery(7, stale), HashWorkloadQuery(7, clean));

  // -0.0 vs 0.0 eta: distinct bit patterns are distinct queries, in both
  // equality and hash (equal-keys-hash-equal must never break).
  const EngineQuery pos = EngineQuery::ReliableSet(3, 0.0);
  const EngineQuery neg = EngineQuery::ReliableSet(3, -0.0);
  EXPECT_FALSE(pos == neg);
  EXPECT_NE(HashWorkloadQuery(7, pos), HashWorkloadQuery(7, neg));

  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 45);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(engine->QuerySeed(stale), engine->QuerySeed(clean));
  const std::vector<EngineResult> first =
      engine->RunBatch(std::vector<EngineQuery>{clean}).MoveValue();
  const std::vector<EngineResult> second =
      engine->RunBatch(std::vector<EngineQuery>{stale}).MoveValue();
  EXPECT_TRUE(second[0].cache_hit);  // same cache key as the clean twin
  ASSERT_EQ(first[0].targets.size(), second[0].targets.size());
}

TEST(EngineWorkloadTest, PerWorkloadStatsCountEveryKind) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 37);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  std::vector<EngineQuery> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(EngineQuery::St(0, 7));
  for (int i = 0; i < 3; ++i) queries.push_back(EngineQuery::TopK(1, 4));
  for (int i = 0; i < 2; ++i) {
    queries.push_back(EngineQuery::ReliableSet(2, 0.4));
  }
  queries.push_back(EngineQuery::Distance(3, 9, 2));
  ASSERT_EQ(engine->RunBatch(queries).MoveValue().size(), queries.size());
  obs::MetricsRegistry& metrics = engine->metrics();
  const auto queries_of = [&metrics](WorkloadKind kind) {
    return CounterValue(metrics, "engine_queries_total", "workload",
                        WorkloadKindName(kind));
  };
  EXPECT_EQ(queries_of(WorkloadKind::kSt), 4u);
  EXPECT_EQ(queries_of(WorkloadKind::kTopK), 3u);
  EXPECT_EQ(queries_of(WorkloadKind::kReliableSet), 2u);
  EXPECT_EQ(queries_of(WorkloadKind::kDistance), 1u);
  EXPECT_EQ(QueriesRecorded(metrics), queries.size());
}

TEST(EngineWorkloadTest, UnsupportedWorkloadFailsPerQueryNotPerBatch) {
  // RSS answers st queries but has no sweep surface: the top-k query in the
  // middle fails alone with NotSupported while its neighbors succeed.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 38);
  auto engine =
      QueryEngine::Create(graph,
                          BaseOptions(2, EstimatorKind::kRecursiveStratified))
          .MoveValue();
  const std::vector<EngineQuery> queries = {
      EngineQuery::St(0, 7), EngineQuery::TopK(0, 5), EngineQuery::St(1, 8)};
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kNotSupported);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(CounterValue(engine->metrics(), "engine_failures_total"), 1u);
}

TEST(EngineWorkloadTest, RhhAnswersDistanceQueries) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 39);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kRecursive))
          .MoveValue();
  const std::vector<EngineQuery> queries = {EngineQuery::Distance(0, 7, 3)};
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  ASSERT_TRUE(results[0].ok()) << results[0].status;
  EXPECT_GE(results[0].reliability, 0.0);
  EXPECT_LE(results[0].reliability, 1.0);
}

TEST(EngineWorkloadTest, RejectsMalformedWorkloadQueriesUpFront) {
  const UncertainGraph graph = RandomSmallGraph(10, 30, 0.3, 0.9, 40);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(engine->RunBatch({EngineQuery::TopK(0, 0)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->RunBatch({EngineQuery::ReliableSet(0, 1.5)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->RunBatch({EngineQuery::Distance(0, 99, 3)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Submit(EngineQuery::TopK(99, 5)).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineWorkloadTest, NegativeCachingServesFailuresWithoutRecompute) {
  // K = 300 exceeds L = 100 indexed worlds: every s != t query fails inside
  // the estimator. With negative caching on, the repeats are served from the
  // cache as negative hits instead of recomputing (and re-failing).
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 41);
  EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing);
  options.factory.bfs_sharing.index_samples = 100;
  options.negative_cache_ttl = 60.0;  // long enough to span the test
  options.enable_coalescing = false;  // isolate the negative-cache path
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  const std::vector<EngineQuery> queries(4, EngineQuery::St(0, 5));
  const std::vector<EngineResult> first =
      engine->RunBatch(queries).MoveValue();
  for (const EngineResult& r : first) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
  const CacheStats stats = engine->cache()->Stats();
  // The first miss computed and cached the error; the repeats hit it.
  EXPECT_GE(stats.negative_hits, 1u);
  obs::MetricsRegistry& metrics = engine->metrics();
  EXPECT_EQ(CounterValue(metrics, "engine_executed_total"), 0u);
  EXPECT_EQ(CounterValue(metrics, "engine_failures_total"), queries.size());
  // Every query resolved exactly once across the outcome counters.
  EXPECT_EQ(CounterValue(metrics, "engine_executed_total") +
                CounterValue(metrics, "engine_coalesced_total") +
                CounterValue(metrics, "engine_failures_total") +
                CounterValue(metrics, "result_cache_hits_total"),
            QueriesRecorded(metrics));

  // Backoff expires: with a tiny TTL the failure is recomputed on re-ask.
  EngineOptions expiring = options;
  expiring.negative_cache_ttl = 1e-9;
  auto retry_engine = QueryEngine::Create(graph, expiring).MoveValue();
  ASSERT_EQ(retry_engine->RunBatch(queries).MoveValue().size(),
            queries.size());
  EXPECT_GE(retry_engine->cache()->Stats().expired, 1u);
}

TEST(EngineWorkloadTest, NegativeCachingOffRecomputesEveryFailure) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 42);
  EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing);
  options.factory.bfs_sharing.index_samples = 100;
  options.negative_cache_ttl = 0.0;
  options.enable_coalescing = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineQuery> queries(3, EngineQuery::St(0, 5));
  ASSERT_EQ(engine->RunBatch(queries).MoveValue().size(), queries.size());
  EXPECT_EQ(engine->cache()->Stats().negative_hits, 0u);
  EXPECT_EQ(CounterValue(engine->metrics(), "engine_failures_total"),
            queries.size());
}

TEST(EngineWorkloadTest, InfiniteCacheTtlStillCaches) {
  // Regression: an infinite or huge TTL overflowed the seconds to
  // nanoseconds conversion, so every entry expired on insert and the cache
  // was silently off. negative_cache_ttl is the engine's one cache TTL: a
  // failure cached under it must be served, not recomputed.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.8, 44);
  for (const double ttl : {std::numeric_limits<double>::infinity(), 1e12}) {
    SCOPED_TRACE(ttl);
    // K = 300 exceeds L = 100 indexed worlds: the query fails every time.
    EngineOptions options = BaseOptions(2, EstimatorKind::kBfsSharing);
    options.factory.bfs_sharing.index_samples = 100;
    options.negative_cache_ttl = ttl;
    auto engine = QueryEngine::Create(graph, options).MoveValue();
    const std::vector<EngineQuery> query = {EngineQuery::St(0, 5)};
    ASSERT_EQ(engine->RunBatch(query).MoveValue()[0].status.code(),
              StatusCode::kInvalidArgument);
    const EngineResult second = engine->RunBatch(query).MoveValue()[0];
    EXPECT_EQ(second.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(engine->cache()->Stats().negative_hits, 1u);
    EXPECT_EQ(engine->cache()->Stats().expired, 0u);
  }
}

TEST(EngineWorkloadTest, InfiniteDeadlineAnswersLikeNoDeadline) {
  // Regression: deadline_ms = inf or 1e300 overflowed the milliseconds to
  // nanoseconds conversion and failed the query at once.
  const UncertainGraph graph = RandomSmallGraph(30, 100, 0.2, 0.9, 45);
  EngineOptions options =
      BaseOptions(2, EstimatorKind::kMonteCarlo, /*cache=*/false);
  const std::vector<EngineQuery> plain = MixedBatch(graph, 24);
  const std::vector<EngineResult> reference =
      QueryEngine::Create(graph, options).MoveValue()->RunBatch(plain)
          .MoveValue();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double deadline_ms : {kInf, 1e300}) {
    SCOPED_TRACE(deadline_ms);
    std::vector<EngineQuery> bounded = plain;
    for (EngineQuery& query : bounded) query.deadline_ms = deadline_ms;
    const std::vector<EngineResult> results =
        QueryEngine::Create(graph, options).MoveValue()->RunBatch(bounded)
            .MoveValue();
    for (const EngineResult& result : results) {
      EXPECT_TRUE(result.ok()) << result.status;
    }
    ExpectBitIdenticalResults(reference, results);
  }
  // The same through the engine-wide default.
  options.default_deadline_ms = kInf;
  ExpectBitIdenticalResults(
      reference,
      QueryEngine::Create(graph, options).MoveValue()->RunBatch(plain)
          .MoveValue());
}

TEST(EngineWorkloadTest, MixedWorkloadGeneratorIsDeterministicAndValid) {
  const UncertainGraph graph = RandomSmallGraph(40, 160, 0.3, 0.9, 43);
  MixedWorkloadOptions options;
  options.num_queries = 120;
  options.pairs.num_pairs = 20;
  const std::vector<EngineQuery> a =
      GenerateMixedWorkload(graph, options).MoveValue();
  const std::vector<EngineQuery> b =
      GenerateMixedWorkload(graph, options).MoveValue();
  ASSERT_EQ(a.size(), 120u);
  EXPECT_TRUE(a == b);

  size_t counts[kNumWorkloadKinds] = {};
  for (const EngineQuery& q : a) {
    ASSERT_TRUE(ValidateWorkload(graph, q).ok()) << q.Describe();
    ++counts[static_cast<size_t>(q.workload)];
  }
  // Every kind shows up under the default weights.
  for (size_t i = 0; i < kNumWorkloadKinds; ++i) {
    EXPECT_GT(counts[i], 0u) << WorkloadKindName(static_cast<WorkloadKind>(i));
  }

  // The engine serves the generated mix end-to-end.
  auto engine =
      QueryEngine::Create(graph, BaseOptions(4, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> results = engine->RunBatch(a).MoveValue();
  for (const EngineResult& r : results) EXPECT_TRUE(r.ok()) << r.status;

  // Zero weights remove kinds; all-zero is rejected.
  MixedWorkloadOptions st_only = options;
  st_only.top_k_weight = 0.0;
  st_only.reliable_set_weight = 0.0;
  st_only.distance_weight = 0.0;
  for (const EngineQuery& q :
       GenerateMixedWorkload(graph, st_only).MoveValue()) {
    EXPECT_EQ(q.workload, WorkloadKind::kSt);
  }
  MixedWorkloadOptions none = options;
  none.st_weight = none.top_k_weight = 0.0;
  none.reliable_set_weight = none.distance_weight = 0.0;
  EXPECT_EQ(GenerateMixedWorkload(graph, none).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineWorkloadTest, StreamServesMixedWorkloads) {
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.2, 0.9, 44);
  const std::vector<EngineQuery> queries = MixedBatch(graph, 40);
  auto batch_engine =
      QueryEngine::Create(graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> batch =
      batch_engine->RunBatch(queries).MoveValue();
  auto stream_engine =
      QueryEngine::Create(graph, BaseOptions(3, EstimatorKind::kMonteCarlo))
          .MoveValue();
  for (const EngineQuery& query : queries) {
    ASSERT_TRUE(stream_engine->Submit(query).ok());
  }
  ExpectBitIdenticalResults(batch, stream_engine->Drain().MoveValue());
}

}  // namespace
}  // namespace relcomp
