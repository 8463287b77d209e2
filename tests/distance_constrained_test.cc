#include "reliability/distance_constrained.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "reliability/exact.h"
#include "test_util.h"

namespace relcomp {

/// Test-only access to the recursive estimator's search epoch.
class DistanceConstrainedRecursiveTestPeer {
 public:
  static void SetEpoch(DistanceConstrainedRecursive& estimator,
                       uint32_t epoch) {
    estimator.epoch_ = epoch;
  }
};

namespace {

using testing::DiamondGraph;
using testing::GraphFromString;
using testing::LineGraph3;
using testing::RandomSmallGraph;
using testing::SamplingTolerance;

TEST(ExactDistanceConstrained, HopBudgetGates) {
  // 0 -> 1 -> 2 (each 0.5): within 1 hop R = 0; within 2 hops R = 0.25.
  const UncertainGraph g = LineGraph3(0.5, 0.5);
  EXPECT_DOUBLE_EQ(
      *ExactDistanceConstrainedReliability(g, {0, 2, /*max_hops=*/1}), 0.0);
  EXPECT_NEAR(*ExactDistanceConstrainedReliability(g, {0, 2, 2}), 0.25, 1e-12);
  EXPECT_NEAR(*ExactDistanceConstrainedReliability(g, {0, 2, 9}), 0.25, 1e-12);
}

TEST(ExactDistanceConstrained, ShortcutVsLongPath) {
  // Direct risky edge vs a safer 2-hop path: the 1-hop budget only sees the
  // direct edge.
  GraphBuilder b(3);
  b.AddEdge(0, 2, 0.2).CheckOK();
  b.AddEdge(0, 1, 0.9).CheckOK();
  b.AddEdge(1, 2, 0.9).CheckOK();
  const UncertainGraph g = b.Build().MoveValue();
  EXPECT_NEAR(*ExactDistanceConstrainedReliability(g, {0, 2, 1}), 0.2, 1e-12);
  const double full = *ExactReliabilityEnumeration(g, 0, 2);
  EXPECT_NEAR(*ExactDistanceConstrainedReliability(g, {0, 2, 2}), full, 1e-12);
}

TEST(ExactDistanceConstrained, UnlimitedBudgetEqualsPlainReliability) {
  for (uint64_t seed = 700; seed < 708; ++seed) {
    const UncertainGraph g = RandomSmallGraph(6, 12, 0.1, 0.9, seed);
    EXPECT_NEAR(*ExactDistanceConstrainedReliability(g, {0, 5, 64}),
                *ExactReliabilityEnumeration(g, 0, 5), 1e-10)
        << seed;
  }
}

TEST(DistanceConstrainedMc, MatchesExactOracle) {
  for (uint64_t seed = 710; seed < 718; ++seed) {
    const UncertainGraph g = RandomSmallGraph(7, 14, 0.2, 0.8, seed);
    DistanceConstrainedMonteCarlo mc(g);
    for (const uint32_t h : {1u, 2u, 3u}) {
      const DistanceConstrainedQuery q{0, 6, h};
      const double exact = *ExactDistanceConstrainedReliability(g, q);
      const double estimate = *mc.Estimate(q, 12000, seed);
      EXPECT_NEAR(estimate, exact, SamplingTolerance(exact, 12000, 4.5))
          << "seed=" << seed << " h=" << h;
    }
  }
}

TEST(DistanceConstrainedRecursive, MatchesExactOracle) {
  for (uint64_t seed = 720; seed < 728; ++seed) {
    const UncertainGraph g = RandomSmallGraph(7, 14, 0.2, 0.8, seed);
    DistanceConstrainedRecursive rhh(g);
    for (const uint32_t h : {2u, 3u}) {
      const DistanceConstrainedQuery q{0, 6, h};
      const double exact = *ExactDistanceConstrainedReliability(g, q);
      double sum = 0.0;
      constexpr int kRuns = 4;
      for (int i = 0; i < kRuns; ++i) {
        sum += *rhh.Estimate(q, 3000, seed * 11 + i);
      }
      EXPECT_NEAR(sum / kRuns, exact,
                  SamplingTolerance(exact, 3000 * kRuns, 5.0) + 0.01)
          << "seed=" << seed << " h=" << h;
    }
  }
}

TEST(DistanceConstrained, MonotoneInHopBudget) {
  const UncertainGraph g = RandomSmallGraph(8, 20, 0.3, 0.7, 730);
  DistanceConstrainedMonteCarlo mc(g);
  double prev = 0.0;
  for (uint32_t h = 1; h <= 6; ++h) {
    const double r = *mc.Estimate({0, 7, h}, 20000, 3);
    EXPECT_GE(r, prev - 0.01) << h;  // sampling slack
    prev = r;
  }
}

TEST(DistanceConstrained, DegenerateQueries) {
  const UncertainGraph g = DiamondGraph(0.5);
  DistanceConstrainedMonteCarlo mc(g);
  DistanceConstrainedRecursive rhh(g);
  EXPECT_DOUBLE_EQ(*mc.Estimate({1, 1, 3}, 10, 1), 1.0);
  EXPECT_DOUBLE_EQ(*rhh.Estimate({1, 1, 3}, 10, 1), 1.0);
  EXPECT_DOUBLE_EQ(*mc.Estimate({0, 3, 0}, 10, 1), 0.0);
  EXPECT_DOUBLE_EQ(*rhh.Estimate({0, 3, 0}, 10, 1), 0.0);
  EXPECT_FALSE(mc.Estimate({0, 99, 2}, 10, 1).ok());
  EXPECT_FALSE(rhh.Estimate({0, 3, 2}, 0, 1).ok());
}

TEST(DistanceConstrained, PaperWorkloadDistanceTwo) {
  // The benchmark's h=2 workloads: R_2(s, t) <= R(s, t) always.
  const UncertainGraph g = GraphFromString(
      "0 1 0.6\n1 2 0.6\n0 3 0.4\n3 4 0.9\n4 2 0.9\n");
  const double bounded = *ExactDistanceConstrainedReliability(g, {0, 2, 2});
  const double full = *ExactReliabilityEnumeration(g, 0, 2);
  EXPECT_LT(bounded, full);
  DistanceConstrainedMonteCarlo mc(g);
  EXPECT_NEAR(*mc.Estimate({0, 2, 2}, 30000, 5), bounded,
              SamplingTolerance(bounded, 30000, 4.5));
}

TEST(DistanceConstrainedRecursive, EpochWrapAnswersLikeAFreshEstimator) {
  // Past the uint32 wrap of the search epoch, neither unstamped nodes nor
  // nodes stamped before the wrap may read as visited by the bounded path
  // and cut searches: every answer equals a fresh estimator's. The wrap
  // lands on the first query's path search (UINT32_MAX) or on its cut
  // search (UINT32_MAX - 1). A warm-up query one sample over the base-case
  // threshold (5) runs one path, one cut and one edge search, leaving stale
  // stamps at epochs 1 to 3. No target is adjacent to its source, so every
  // search walks.
  const UncertainGraph g = GraphFromString(
      "0 1 0.6\n0 2 0.5\n1 3 0.7\n1 4 0.4\n2 3 0.5\n2 4 0.8\n"
      "3 5 0.6\n3 6 0.5\n4 5 0.5\n4 6 0.7\n5 7 0.6\n6 7 0.5\n");
  const DistanceConstrainedQuery queries[] = {
      {0, 7, 4}, {1, 7, 3}, {0, 6, 3}, {0, 7, 5}};
  for (const bool warm : {false, true}) {
    for (const uint32_t start : {UINT32_MAX - 1, UINT32_MAX}) {
      DistanceConstrainedRecursive wrapped(g);
      if (warm) {
        ASSERT_TRUE(wrapped.Estimate({0, 7, 4}, 6, 1).ok());
      }
      DistanceConstrainedRecursiveTestPeer::SetEpoch(wrapped, start);
      DistanceConstrainedRecursive fresh(g);
      for (const DistanceConstrainedQuery& q : queries) {
        const uint64_t seed = q.source * 100 + q.target;
        EXPECT_EQ(*wrapped.Estimate(q, 400, seed),
                  *fresh.Estimate(q, 400, seed))
            << "warm=" << warm << " start=" << start << " s=" << q.source
            << " t=" << q.target;
      }
    }
  }
}

}  // namespace
}  // namespace relcomp
