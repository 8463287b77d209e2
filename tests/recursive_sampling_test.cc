#include "reliability/recursive_sampling.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "reliability/exact.h"
#include "reliability/mc_sampling.h"
#include "test_util.h"

namespace relcomp {

/// Test-only access to the estimator's reachability-check epoch.
class RecursiveEstimatorTestPeer {
 public:
  static void SetEpoch(RecursiveEstimator& estimator, uint32_t epoch) {
    estimator.epoch_ = epoch;
  }
};

namespace {

using testing::DiamondGraph;
using testing::GraphFromString;
using testing::LineGraph3;
using testing::RandomSmallGraph;
using testing::SamplingTolerance;

TEST(Recursive, CertainPathShortCircuitsToOne) {
  const UncertainGraph g = GraphFromString("0 1 1\n1 2 1\n");
  RecursiveEstimator rhh(g);
  EstimateOptions opts;
  opts.num_samples = 1000;
  // With both edges certain, every branch hits the E1-path termination.
  EXPECT_DOUBLE_EQ(rhh.Estimate({0, 2}, opts)->reliability, 1.0);
}

TEST(Recursive, DisconnectedIsExactlyZero) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.9).CheckOK();
  b.AddEdge(2, 3, 0.9).CheckOK();
  const UncertainGraph g = b.Build().MoveValue();
  RecursiveEstimator rhh(g);
  EstimateOptions opts;
  opts.num_samples = 1000;
  EXPECT_DOUBLE_EQ(rhh.Estimate({0, 3}, opts)->reliability, 0.0);
}

TEST(Recursive, SmallBudgetFallsBackToBaseCase) {
  const UncertainGraph g = DiamondGraph(0.5);
  RecursiveEstimator rhh(g);
  EstimateOptions opts;
  opts.num_samples = 3;  // below default threshold 5
  opts.seed = 1;
  const double r = rhh.Estimate({0, 3}, opts)->reliability;
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, 1.0);
}

TEST(Recursive, UnbiasedOnDiamond) {
  const UncertainGraph g = DiamondGraph(0.5);
  const double truth = 1.0 - 0.75 * 0.75;
  RecursiveEstimator rhh(g);
  RunningStats stats;
  for (int i = 0; i < 300; ++i) {
    EstimateOptions opts;
    opts.num_samples = 300;
    opts.seed = 9000 + i;
    stats.Add(rhh.Estimate({0, 3}, opts)->reliability);
  }
  EXPECT_NEAR(stats.mean(), truth, 0.01);
}

TEST(Recursive, VarianceBelowMonteCarloAtEqualK) {
  // Theorem 2 of [20]: proportional deterministic allocation reduces
  // variance vs plain MC at the same sample size.
  const UncertainGraph g = RandomSmallGraph(10, 24, 0.2, 0.8, 55);
  MonteCarloEstimator mc(g);
  RecursiveEstimator rhh(g);
  RunningStats mc_stats;
  RunningStats rhh_stats;
  constexpr uint32_t kK = 120;
  for (int i = 0; i < 500; ++i) {
    EstimateOptions opts;
    opts.num_samples = kK;
    opts.seed = 40000 + i;
    mc_stats.Add(mc.Estimate({0, 9}, opts)->reliability);
    rhh_stats.Add(rhh.Estimate({0, 9}, opts)->reliability);
  }
  EXPECT_NEAR(rhh_stats.mean(), mc_stats.mean(), 0.02);
  EXPECT_LT(rhh_stats.SampleVariance(), mc_stats.SampleVariance());
}

TEST(Recursive, ThresholdKnobIsRespected) {
  // A threshold as large as K degenerates RHH into plain MC (Figure 16's
  // observation); both extremes must stay unbiased.
  const UncertainGraph g = DiamondGraph(0.4);
  const double truth = 1.0 - (1.0 - 0.16) * (1.0 - 0.16);
  for (const uint32_t threshold : {2u, 100u}) {
    RecursiveSamplingOptions options;
    options.threshold = threshold;
    RecursiveEstimator rhh(g, options);
    RunningStats stats;
    for (int i = 0; i < 150; ++i) {
      EstimateOptions opts;
      opts.num_samples = 100;
      opts.seed = 70000 + i;
      stats.Add(rhh.Estimate({0, 3}, opts)->reliability);
    }
    EXPECT_NEAR(stats.mean(), truth, 0.02) << "threshold=" << threshold;
  }
}

TEST(Recursive, AgreesWithExactAcrossGraphs) {
  for (uint64_t seed = 400; seed < 412; ++seed) {
    const UncertainGraph g = RandomSmallGraph(8, 18, 0.1, 0.9, seed);
    const double exact = *ExactReliabilityEnumeration(g, 0, 7);
    RecursiveEstimator rhh(g);
    double sum = 0.0;
    constexpr int kRuns = 5;
    for (int i = 0; i < kRuns; ++i) {
      EstimateOptions opts;
      opts.num_samples = 2000;
      opts.seed = seed * 31 + i;
      sum += rhh.Estimate({0, 7}, opts)->reliability;
    }
    // RHH's variance is below binomial, so the MC tolerance is conservative.
    EXPECT_NEAR(sum / kRuns, exact, SamplingTolerance(exact, 2000 * kRuns, 5.0))
        << seed;
  }
}

TEST(Recursive, LowProbabilityBranchesDoNotStarve) {
  // floor(K * p) would starve p = 0.01 branches; the >= 1 clamp keeps the
  // estimate sane.
  const UncertainGraph g = GraphFromString("0 1 0.01\n1 2 0.99\n");
  const double exact = 0.01 * 0.99;
  RecursiveEstimator rhh(g);
  RunningStats stats;
  for (int i = 0; i < 400; ++i) {
    EstimateOptions opts;
    opts.num_samples = 50;
    opts.seed = 80000 + i;
    stats.Add(rhh.Estimate({0, 2}, opts)->reliability);
  }
  EXPECT_NEAR(stats.mean(), exact, 0.01);
}

TEST(Recursive, AllSelectionStrategiesAreUnbiased) {
  // The selection policy only steers the conditioning order; every strategy
  // must estimate the same value (Section 2.4 ablation).
  const UncertainGraph g = RandomSmallGraph(8, 18, 0.2, 0.8, 68);
  const double exact = *ExactReliabilityEnumeration(g, 0, 7);
  for (const EdgeSelectionStrategy strategy :
       {EdgeSelectionStrategy::kDfs, EdgeSelectionStrategy::kBfs,
        EdgeSelectionStrategy::kRandom}) {
    RecursiveSamplingOptions options;
    options.selection = strategy;
    RecursiveEstimator rhh(g, options);
    RunningStats stats;
    for (int i = 0; i < 150; ++i) {
      EstimateOptions opts;
      opts.num_samples = 300;
      opts.seed = 91000 + i;
      stats.Add(rhh.Estimate({0, 7}, opts)->reliability);
    }
    EXPECT_NEAR(stats.mean(), exact, 0.02)
        << "strategy=" << static_cast<int>(strategy);
  }
}

TEST(Recursive, MemoryAboveMonteCarlo) {
  // Section 3.6: RHH keeps the edge-state array and recursion stack live.
  const UncertainGraph g = RandomSmallGraph(200, 1000, 0.3, 0.9, 66);
  MonteCarloEstimator mc(g);
  RecursiveEstimator rhh(g);
  EstimateOptions opts;
  opts.num_samples = 500;
  opts.seed = 2;
  const size_t mc_mem = mc.Estimate({0, 100}, opts)->peak_memory_bytes;
  const size_t rhh_mem = rhh.Estimate({0, 100}, opts)->peak_memory_bytes;
  EXPECT_GT(rhh_mem, mc_mem);
}

TEST(Recursive, DeterministicPerSeed) {
  const UncertainGraph g = RandomSmallGraph(10, 30, 0.2, 0.8, 67);
  RecursiveEstimator rhh(g);
  EstimateOptions opts;
  opts.num_samples = 777;
  opts.seed = 42;
  EXPECT_DOUBLE_EQ(rhh.Estimate({0, 9}, opts)->reliability,
                   rhh.Estimate({0, 9}, opts)->reliability);
}

TEST(Recursive, EpochWrapAnswersLikeAFreshEstimator) {
  // Past the uint32 wrap of the check epoch, neither unstamped nodes nor
  // nodes stamped before the wrap may read as visited by the path and cut
  // checks: every answer equals a fresh estimator's. The wrap lands on the
  // first query's path check (UINT32_MAX) or on its cut check
  // (UINT32_MAX - 1). A warm-up query one sample over the base-case
  // threshold runs one path and one cut check, leaving stale stamps at
  // epochs 1 and 2. No target is adjacent to its source, so both checks
  // must walk.
  const UncertainGraph g = GraphFromString(
      "0 1 0.6\n0 2 0.5\n1 3 0.7\n1 4 0.4\n2 3 0.5\n2 4 0.8\n"
      "3 5 0.6\n3 6 0.5\n4 5 0.5\n4 6 0.7\n5 7 0.6\n6 7 0.5\n");
  const ReliabilityQuery queries[] = {{0, 7}, {1, 7}, {0, 6}, {0, 7}};
  EstimateOptions opts;
  opts.num_samples = 400;
  for (const bool warm : {false, true}) {
    for (const uint32_t start : {UINT32_MAX - 1, UINT32_MAX}) {
      RecursiveEstimator wrapped(g);
      if (warm) {
        EstimateOptions warm_up;
        warm_up.num_samples = RecursiveSamplingOptions().threshold + 1;
        ASSERT_TRUE(wrapped.Estimate({0, 7}, warm_up).ok());
      }
      RecursiveEstimatorTestPeer::SetEpoch(wrapped, start);
      RecursiveEstimator fresh(g);
      for (const ReliabilityQuery& q : queries) {
        opts.seed = q.source * 100 + q.target;
        EXPECT_EQ(wrapped.Estimate(q, opts)->reliability,
                  fresh.Estimate(q, opts)->reliability)
            << "warm=" << warm << " start=" << start << " s=" << q.source
            << " t=" << q.target;
      }
    }
  }
}

}  // namespace
}  // namespace relcomp
