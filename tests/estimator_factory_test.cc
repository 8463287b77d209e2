#include "reliability/estimator_factory.h"

#include <gtest/gtest.h>

#include "reliability/workload.h"
#include "test_util.h"

namespace relcomp {
namespace {

TEST(Factory, BuildsAllKinds) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 1);
  const EstimatorKind kinds[] = {
      EstimatorKind::kMonteCarlo,        EstimatorKind::kBfsSharing,
      EstimatorKind::kProbTree,          EstimatorKind::kLazyPropagationPlus,
      EstimatorKind::kRecursive,         EstimatorKind::kRecursiveStratified,
      EstimatorKind::kLazyPropagation,   EstimatorKind::kProbTreeLpPlus,
      EstimatorKind::kProbTreeRhh,       EstimatorKind::kProbTreeRss,
  };
  for (EstimatorKind kind : kinds) {
    Result<std::unique_ptr<Estimator>> est = MakeEstimator(kind, g);
    ASSERT_TRUE(est.ok()) << EstimatorKindName(kind);
    EXPECT_EQ(std::string((*est)->name()), EstimatorKindName(kind));
    EXPECT_EQ(&(*est)->graph(), &g);
  }
}

TEST(Factory, TheSixAreInPaperOrder) {
  const std::vector<EstimatorKind> six = TheSixEstimators();
  ASSERT_EQ(six.size(), 6u);
  EXPECT_EQ(six[0], EstimatorKind::kMonteCarlo);
  EXPECT_EQ(six[1], EstimatorKind::kBfsSharing);
  EXPECT_EQ(six[2], EstimatorKind::kProbTree);
  EXPECT_EQ(six[3], EstimatorKind::kLazyPropagationPlus);
  EXPECT_EQ(six[4], EstimatorKind::kRecursive);
  EXPECT_EQ(six[5], EstimatorKind::kRecursiveStratified);
}

TEST(Factory, CapabilitiesMatchDispatchForEachOfTheSix) {
  // One capability set per kind, and the dispatch surface agrees with it:
  // a top-k query (a source sweep) and a distance query fail with
  // NotSupported exactly where the kind's bit is false.
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 5);
  struct Row {
    EstimatorKind kind;
    bool sweep;
    bool distance;
    bool prepared_generations;
  };
  const std::vector<Row> rows = {
      {EstimatorKind::kMonteCarlo, true, true, false},
      {EstimatorKind::kBfsSharing, true, false, true},
      {EstimatorKind::kProbTree, false, false, false},
      {EstimatorKind::kLazyPropagationPlus, false, false, false},
      {EstimatorKind::kRecursive, false, true, false},
      {EstimatorKind::kRecursiveStratified, false, false, false},
  };
  ASSERT_EQ(rows.size(), TheSixEstimators().size());
  for (const Row& row : rows) {
    SCOPED_TRACE(EstimatorKindName(row.kind));
    std::unique_ptr<Estimator> est = MakeEstimator(row.kind, g).MoveValue();
    const EstimatorCapabilities caps = est->capabilities();
    EXPECT_EQ(caps.sweep, row.sweep);
    EXPECT_EQ(caps.distance, row.distance);
    EXPECT_EQ(caps.prepared_generations, row.prepared_generations);

    EstimateOptions options;
    options.num_samples = 64;
    options.seed = 9;
    const Result<WorkloadResult> top_k =
        DispatchWorkload(*est, EngineQuery::TopK(0, 3), options);
    EXPECT_EQ(top_k.ok(), row.sweep) << top_k.status();
    EXPECT_EQ(top_k.status().code() == StatusCode::kNotSupported, !row.sweep);
    const Result<WorkloadResult> distance =
        DispatchWorkload(*est, EngineQuery::Distance(0, 1, 3), options);
    EXPECT_EQ(distance.ok(), row.distance) << distance.status();
    EXPECT_EQ(distance.status().code() == StatusCode::kNotSupported,
              !row.distance);
    ASSERT_TRUE(est->PrepareForNextQuery(1).ok());
    const Result<std::shared_ptr<const PreparedGeneration>> generation =
        est->CurrentPreparedGeneration();
    EXPECT_EQ(generation.ok(), row.prepared_generations);
    EXPECT_EQ(generation.status().code() == StatusCode::kNotSupported,
              !row.prepared_generations);
  }
}

TEST(Factory, OptionsArePropagated) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 2);
  FactoryOptions options;
  options.bfs_sharing.index_samples = 64;
  Result<std::unique_ptr<Estimator>> est =
      MakeEstimator(EstimatorKind::kBfsSharing, g, options);
  ASSERT_TRUE(est.ok());
  EstimateOptions opts;
  opts.num_samples = 65;  // above the configured L
  EXPECT_FALSE((*est)->Estimate({0, 1}, opts).ok());
  opts.num_samples = 64;
  EXPECT_TRUE((*est)->Estimate({0, 1}, opts).ok());
}

TEST(Factory, IndexSeedControlsBfsSharingWorlds) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.3, 0.7, 3);
  FactoryOptions a;
  a.index_seed = 1;
  FactoryOptions b;
  b.index_seed = 1;
  FactoryOptions c;
  c.index_seed = 2;
  EstimateOptions opts;
  opts.num_samples = 500;
  const double ra =
      (*MakeEstimator(EstimatorKind::kBfsSharing, g, a))->Estimate({0, 10}, opts)
          ->reliability;
  const double rb =
      (*MakeEstimator(EstimatorKind::kBfsSharing, g, b))->Estimate({0, 10}, opts)
          ->reliability;
  const double rc =
      (*MakeEstimator(EstimatorKind::kBfsSharing, g, c))->Estimate({0, 10}, opts)
          ->reliability;
  EXPECT_DOUBLE_EQ(ra, rb);
  (void)rc;  // rc may coincide by chance; only equality of a/b is guaranteed
}

TEST(Factory, ReplicasShareOneImmutableIndex) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 4);
  const FactoryOptions options;

  for (EstimatorKind kind :
       {EstimatorKind::kProbTree, EstimatorKind::kProbTreeRss}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    auto replicas = MakeEstimatorReplicas(kind, g, 4, options).MoveValue();
    ASSERT_EQ(replicas.size(), 4u);
    const void* identity = replicas[0]->SharedIndexIdentity();
    ASSERT_NE(identity, nullptr);
    for (const auto& replica : replicas) {
      EXPECT_EQ(replica->SharedIndexIdentity(), identity);
      EXPECT_EQ(replica->SharedIndexBytes(), replicas[0]->IndexMemoryBytes());
    }
    // Deduped footprint: one index, zero replica-private index bytes.
    const IndexMemoryReport report = ReportIndexMemory(replicas);
    EXPECT_EQ(report.shared_indexes, 1u);
    EXPECT_EQ(report.shared_bytes, replicas[0]->IndexMemoryBytes());
    EXPECT_EQ(report.replica_bytes, 0u);
  }
}

TEST(Factory, BfsSharingReplicaPathBuildsNothing) {
  // BFS Sharing replicas start with no generation: building eight samples
  // nothing, each refuses an estimate until its first prepare, and then
  // answers as a bare estimator prepared with the same seed.
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 5);
  FactoryOptions options;
  options.bfs_sharing.index_samples = 128;
  const uint64_t builds_before = BfsSharingIndex::BuildCount();
  auto replicas =
      MakeEstimatorReplicas(EstimatorKind::kBfsSharing, g, 8, options)
          .MoveValue();
  EXPECT_EQ(BfsSharingIndex::BuildCount() - builds_before, 0u);
  EXPECT_EQ(ReportIndexMemory(replicas).total_bytes(), 0u);

  auto bare = MakeEstimator(EstimatorKind::kBfsSharing, g, options).MoveValue();
  ASSERT_TRUE(bare->PrepareForNextQuery(31).ok());
  EstimateOptions opts;
  opts.num_samples = 128;
  const double expected = bare->Estimate({0, 10}, opts)->reliability;
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->Estimate({0, 10}, opts).status().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(replica->PrepareForNextQuery(31).ok());
    EXPECT_EQ(replica->Estimate({0, 10}, opts)->reliability, expected);
  }
}

TEST(Factory, IndexMemoryCountsAnIndexAsSharedOnlyWhenTwoReplicasHoldIt) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.05, 0.9, 7);
  FactoryOptions options;
  options.bfs_sharing.index_samples = 1500;
  // K = 200 of L = 1500: W = 4 words per edge.
  const size_t generation_bytes = g.num_edges() * 4 * sizeof(uint64_t);
  auto replicas =
      MakeEstimatorReplicas(EstimatorKind::kBfsSharing, g, 2, options, 200)
          .MoveValue();
  // Each replica prepares a generation of its own: two private ones.
  ASSERT_TRUE(replicas[0]->PrepareForNextQuery(1).ok());
  ASSERT_TRUE(replicas[1]->PrepareForNextQuery(2).ok());
  IndexMemoryReport report = ReportIndexMemory(replicas);
  EXPECT_EQ(report.shared_bytes, 0u);
  EXPECT_EQ(report.shared_indexes, 0u);
  EXPECT_EQ(report.replica_bytes, 2 * generation_bytes);
  // Replica 1 adopts replica 0's: one generation, held twice, counted once.
  ASSERT_TRUE(replicas[1]
                  ->AdoptPreparedGeneration(
                      replicas[0]->CurrentPreparedGeneration().MoveValue())
                  .ok());
  report = ReportIndexMemory(replicas);
  EXPECT_EQ(report.shared_bytes, generation_bytes);
  EXPECT_EQ(report.shared_indexes, 1u);
  EXPECT_EQ(report.replica_bytes, 0u);

  // One ProbTree replica holds its index alone.
  auto prob_tree =
      MakeEstimatorReplicas(EstimatorKind::kProbTree, g, 1, options)
          .MoveValue();
  report = ReportIndexMemory(prob_tree);
  EXPECT_EQ(report.shared_bytes, 0u);
  EXPECT_EQ(report.shared_indexes, 0u);
  EXPECT_EQ(report.replica_bytes, prob_tree[0]->IndexMemoryBytes());
  EXPECT_GT(report.replica_bytes, 0u);
}

TEST(Factory, IndexFreeKindsReportNoSharedIndex) {
  const UncertainGraph g = testing::RandomSmallGraph(20, 60, 0.2, 0.8, 6);
  auto replicas =
      MakeEstimatorReplicas(EstimatorKind::kMonteCarlo, g, 3).MoveValue();
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->SharedIndexIdentity(), nullptr);
    EXPECT_EQ(replica->SharedIndexBytes(), 0u);
  }
  const IndexMemoryReport report = ReportIndexMemory(replicas);
  EXPECT_EQ(report.shared_indexes, 0u);
  EXPECT_EQ(report.total_bytes(), 0u);
}

TEST(Factory, NamesAreUnique) {
  std::set<std::string> names;
  for (EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing,
        EstimatorKind::kProbTree, EstimatorKind::kLazyPropagationPlus,
        EstimatorKind::kRecursive, EstimatorKind::kRecursiveStratified,
        EstimatorKind::kLazyPropagation, EstimatorKind::kProbTreeLpPlus,
        EstimatorKind::kProbTreeRhh, EstimatorKind::kProbTreeRss}) {
    EXPECT_TRUE(names.insert(EstimatorKindName(kind)).second);
  }
}

}  // namespace
}  // namespace relcomp
