// Engine-level coverage of the sweep-sharing layer: one same-source mixed
// batch executes exactly one EstimateFromSource per distinct source
// (stats-verified), derived top-k / reliable-set answers are bit-identical to
// the standalone APIs, the SweepCache evicts under byte pressure without
// changing answers, every answer at 1/2/8 threads, with the coin-pass
// helpers filling inline prepares, equals a bare estimator's, and a BFS
// Sharing engine holds at most one generation per worker.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "reliability/bfs_sharing.h"
#include "reliability/reliable_set.h"
#include "reliability/top_k.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::BareEstimatorAnswers;
using ::relcomp::testing::CounterValue;
using ::relcomp::testing::RandomSmallGraph;

EngineOptions BaseOptions(size_t threads, EstimatorKind kind) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 200;
  options.seed = 20190412;
  return options;
}

/// The hot pattern the sweep layer exists for: many parameterizations of a
/// few sources — top-k at several k, reliable-set at several eta, plus an
/// s-t query — each repeated, interleaved across sources.
std::vector<EngineQuery> SameSourceMix(const std::vector<NodeId>& sources,
                                       size_t repeats) {
  std::vector<EngineQuery> queries;
  for (size_t r = 0; r < repeats; ++r) {
    for (const NodeId s : sources) {
      queries.push_back(EngineQuery::TopK(s, 5));
      queries.push_back(EngineQuery::TopK(s, 10));
      queries.push_back(EngineQuery::ReliableSet(s, 0.2));
      queries.push_back(EngineQuery::ReliableSet(s, 0.6));
      queries.push_back(EngineQuery::St(s, (s + 3) % 20));
    }
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<EngineResult>& a,
                        const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].query.Describe());
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0);
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size());
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(SweepSharingTest, SameSourceMixedBatchRunsOneSweepPerSource) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 51);
  const std::vector<NodeId> sources = {2, 7, 11};
  const std::vector<EngineQuery> queries = SameSourceMix(sources, 4);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    std::vector<EngineResult> reference;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(threads);
      auto engine =
          QueryEngine::Create(graph, BaseOptions(threads, kind)).MoveValue();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
      // Same bits at every thread count.
      if (reference.empty()) {
        reference = results;
      } else {
        ExpectBitIdentical(reference, results);
      }

      // The gate: at most one EstimateFromSource per distinct (source,
      // generation) — generations are per-source here, so per distinct
      // source — no matter how many k / eta / repeats ask.
      obs::MetricsRegistry& metrics = engine->metrics();
      const uint64_t sweep_executed =
          CounterValue(metrics, "engine_sweep_executed_total");
      EXPECT_LE(sweep_executed, sources.size());
      const uint64_t sweep_queries =
          CounterValue(metrics, "engine_queries_total", "workload",
                       WorkloadKindName(WorkloadKind::kTopK)) +
          CounterValue(metrics, "engine_queries_total", "workload",
                       WorkloadKindName(WorkloadKind::kReliableSet));
      EXPECT_EQ(sweep_queries, 16 * sources.size());
      // Partition invariant: every sweep-kind query that reached the
      // compute path (neither a cache hit nor query-level coalesced)
      // resolved through exactly one of the three sweep outcomes.
      uint64_t compute_path_sweeps = 0;
      for (const EngineResult& r : results) {
        if (IsSweepWorkload(r.query.workload) && !r.cache_hit &&
            !r.coalesced) {
          ++compute_path_sweeps;
        }
      }
      EXPECT_EQ(CounterValue(metrics, "engine_sweep_hits_total") +
                    CounterValue(metrics, "engine_sweep_coalesced_total") +
                    sweep_executed,
                compute_path_sweeps);
    }
  }
}

TEST(SweepSharingTest, DerivedAnswersMatchStandaloneApisBitwise) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 52);
  EngineOptions options = BaseOptions(4, EstimatorKind::kMonteCarlo);
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  const std::vector<EngineQuery> queries = SameSourceMix({3, 9}, 2);
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();

  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery& query = queries[i];
    ASSERT_TRUE(results[i].ok()) << results[i].status;
    if (query.workload == WorkloadKind::kTopK) {
      const std::vector<ReliableTarget> expected =
          TopKReliableTargetsMonteCarlo(graph, query.source, query.k,
                                        options.num_samples,
                                        engine->QuerySeed(query))
              .MoveValue();
      ASSERT_EQ(results[i].targets.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(results[i].targets[j].node, expected[j].node);
        EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                              &expected[j].reliability, sizeof(double)),
                  0);
      }
    } else if (query.workload == WorkloadKind::kReliableSet) {
      const ReliableSetResult expected =
          ReliableSetMonteCarlo(graph, query.source, query.eta,
                                options.num_samples, engine->QuerySeed(query))
              .MoveValue();
      ASSERT_EQ(results[i].targets.size(), expected.members.size());
      for (size_t j = 0; j < expected.members.size(); ++j) {
        EXPECT_EQ(results[i].targets[j].node, expected.members[j].node);
        EXPECT_EQ(std::memcmp(&results[i].targets[j].reliability,
                              &expected.members[j].reliability,
                              sizeof(double)),
                  0);
      }
    }
  }
  // The sharing actually happened (not just correct answers): 2 sources,
  // many parameterizations, <= 2 sweeps.
  EXPECT_LE(CounterValue(engine->metrics(), "engine_sweep_executed_total"), 2u);
}

TEST(SweepSharingTest, SweepSeedIgnoresParametersButNotSourceOrBudget) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 53);
  auto engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)),
            engine->QuerySeed(EngineQuery::TopK(4, 99)));
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)),
            engine->QuerySeed(EngineQuery::ReliableSet(4, 0.7)));
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 5)), engine->SweepSeed(4));
  EXPECT_NE(engine->SweepSeed(4), engine->SweepSeed(5));

  // Different sample budgets are different sweeps (and different engines'
  // master seeds never alias, as before).
  EngineOptions other = BaseOptions(2, EstimatorKind::kMonteCarlo);
  other.num_samples = 500;
  auto other_engine = QueryEngine::Create(graph, other).MoveValue();
  EXPECT_NE(engine->SweepSeed(4), other_engine->SweepSeed(4));
}

TEST(SweepSharingTest, DeterministicAcrossThreadsCachesAndSweepToggles) {
  // Every answer — derived from the sweep memo or a sweep flight (led or
  // stolen), for BFS Sharing over an inline-prepared or flight-handed
  // generation — equals the bare estimator's.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 54);
  const std::vector<EngineQuery> queries = SameSourceMix({1, 6, 13}, 3);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      auto engine =
          QueryEngine::Create(graph, BaseOptions(threads, kind)).MoveValue();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
      ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries),
                         results);
    }
  }
}

TEST(SweepSharingTest, ReplicasPrepareGenerationsAsWideAsTheBudget) {
  // K = 300 of L = 1500 worlds. Create builds no generation; every
  // generation a replica prepares holds ceil(300 / 64) = 5 words per edge,
  // and a worker holds at most one. With one worker the batch builds exactly
  // one generation, at the first prepare, and every later prepare refills
  // it in place. The answers (s-t, top-k and reliable-set, with S = 4
  // strata starting at 0, 75, 150 and 225, led or stolen) equal a bare
  // whole-width estimator's. The graph has geometric edges (p < 0.25) as
  // well as coin edges.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.05, 0.9, 88);
  const size_t narrowed_bytes = graph.num_edges() * 5 * sizeof(uint64_t);
  const std::vector<EngineQuery> queries = SameSourceMix({2, 8, 15}, 2);
  for (const size_t threads : {1u, 2u, 4u}) {
    for (const uint32_t strata : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, S = "
                                        << strata);
      EngineOptions options = BaseOptions(threads, EstimatorKind::kBfsSharing);
      options.num_samples = 300;
      options.num_strata = strata;
      ASSERT_EQ(options.factory.bfs_sharing.index_samples, 1500u);
      auto engine = QueryEngine::Create(graph, options).MoveValue();
      EXPECT_EQ(engine->IndexMemory().total_bytes(), 0u);
      const uint64_t builds = BfsSharingIndex::BuildCount();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      const uint64_t batch_builds = BfsSharingIndex::BuildCount() - builds;
      const IndexMemoryReport after = engine->IndexMemory();
      // The one worker's generation is its own, not shared. With more, one
      // may still hold none, and they may share one through a sweep flight.
      if (threads == 1) {
        EXPECT_EQ(batch_builds, 1u);
        EXPECT_EQ(after.total_bytes(), narrowed_bytes);
        EXPECT_EQ(after.replica_bytes, narrowed_bytes);
        EXPECT_EQ(after.shared_bytes, 0u);
      }
      EXPECT_LE(after.total_bytes(), threads * narrowed_bytes);
      for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
      ExpectBitIdentical(BareEstimatorAnswers(*engine, graph, queries),
                         results);
    }
  }
}

TEST(SweepSharingTest, SweepCacheEvictionUnderBytePressureKeepsAnswers) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 55);
  // A second round over the same sources asks other k / eta: no result-cache
  // entry answers it, so every one of its queries goes back to the memo.
  std::vector<EngineQuery> queries = SameSourceMix({0, 5, 10, 15}, 1);
  for (const NodeId s : {0u, 5u, 10u, 15u}) {
    queries.push_back(EngineQuery::TopK(s, 7));
    queries.push_back(EngineQuery::ReliableSet(s, 0.4));
  }

  EngineOptions roomy = BaseOptions(2, EstimatorKind::kMonteCarlo);
  auto roomy_engine = QueryEngine::Create(graph, roomy).MoveValue();
  const std::vector<EngineResult> expected =
      roomy_engine->RunBatch(queries).MoveValue();

  // Budget of ~1.5 sweeps (20 nodes * 8 bytes = 160 bytes each): constant
  // eviction churn across the 4 sources, answers unchanged.
  EngineOptions tight = roomy;
  tight.sweep_cache_max_bytes = 240;
  auto tight_engine = QueryEngine::Create(graph, tight).MoveValue();
  ExpectBitIdentical(expected, tight_engine->RunBatch(queries).MoveValue());
  const CacheStats stats = tight_engine->sweep_cache()->Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, tight.sweep_cache_max_bytes);
  // Churn costs sweeps: at least one per source, but still every answer
  // bit-identical (checked above).
  EXPECT_GE(
      CounterValue(tight_engine->metrics(), "engine_sweep_executed_total"),
      4u);
}

TEST(SweepSharingTest, ConcurrentDistinctParamsCoalesceAtSweepLevel) {
  // 32 different-k top-k queries + 32 different-eta reliable-set queries for
  // ONE source, submitted at once: distinct result-cache keys (no query-level
  // coalescing possible), yet at most one sweep executes when the memo and
  // sweep flights are on.
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.3, 0.9, 56);
  std::vector<EngineQuery> queries;
  for (uint32_t k = 1; k <= 32; ++k) queries.push_back(EngineQuery::TopK(9, k));
  for (uint32_t i = 0; i < 32; ++i) {
    queries.push_back(EngineQuery::ReliableSet(9, i / 32.0));
  }
  auto engine =
      QueryEngine::Create(graph, BaseOptions(8, EstimatorKind::kMonteCarlo))
          .MoveValue();
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
  obs::MetricsRegistry& metrics = engine->metrics();
  EXPECT_EQ(CounterValue(metrics, "engine_sweep_executed_total"), 1u);
  // The query that led the sweep aside, all 63 shared it.
  EXPECT_EQ(CounterValue(metrics, "engine_sweep_hits_total") +
                CounterValue(metrics, "engine_sweep_coalesced_total"),
            63u);
  // Every query derived its own payload.
  EXPECT_EQ(CounterValue(metrics, "engine_executed_total"), 64u);
}

TEST(SweepSharingTest, OnlyKindsWithPreparedGenerationsRunCoinPassHelpers) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 57);
  auto bfs_engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kBfsSharing))
          .MoveValue();
  ASSERT_NE(bfs_engine->coin_pass_helpers(), nullptr);
  EXPECT_EQ(bfs_engine->coin_pass_helpers()->num_helpers(), 2u);
  // MC has no prepared-generation surface: no helper thread is spun up.
  auto mc_engine =
      QueryEngine::Create(graph, BaseOptions(2, EstimatorKind::kMonteCarlo))
          .MoveValue();
  EXPECT_EQ(mc_engine->coin_pass_helpers(), nullptr);
}

TEST(SweepSharingTest, SweepAndDistanceQueriesReportPeakMemory) {
  // The MemoryTracker plumbing: WorkloadResult::peak_memory_bytes (and thus
  // the engine's peak-mem stat) must be non-zero for sweep and distance
  // queries, not just s-t.
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 58);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto engine = QueryEngine::Create(graph, BaseOptions(2, kind)).MoveValue();
    std::vector<EngineQuery> queries = {EngineQuery::TopK(0, 5),
                                        EngineQuery::ReliableSet(1, 0.3)};
    if (kind == EstimatorKind::kMonteCarlo) {
      queries.push_back(EngineQuery::Distance(2, 9, 3));
    }
    const std::vector<EngineResult> results =
        engine->RunBatch(queries).MoveValue();
    for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
    EXPECT_GT(engine->metrics().GetGauge("engine_peak_memory_bytes")->Value(),
              0.0);
  }
}

TEST(SweepSharingTest, StreamSharesSweepsLikeBatches) {
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.3, 0.9, 59);
  const std::vector<EngineQuery> queries = SameSourceMix({4, 8}, 3);
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
  ExpectBitIdentical(batch, stream_engine->Drain().MoveValue());
  EXPECT_LE(
      CounterValue(stream_engine->metrics(), "engine_sweep_executed_total"),
      2u);
}

}  // namespace
}  // namespace relcomp
