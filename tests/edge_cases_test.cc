// Pathological-input coverage across the whole stack: degenerate graphs,
// extreme probabilities, hubs, deep chains, and disconnected structures.

#include <gtest/gtest.h>

#include "reliability/estimator_factory.h"
#include "reliability/exact.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::GraphFromString;
using testing::SamplingTolerance;

class EdgeCaseSweep : public ::testing::TestWithParam<EstimatorKind> {
 protected:
  std::unique_ptr<Estimator> Make(const UncertainGraph& g) {
    FactoryOptions factory;
    factory.bfs_sharing.index_samples = 4000;
    Result<std::unique_ptr<Estimator>> est = MakeEstimator(GetParam(), g, factory);
    EXPECT_TRUE(est.ok()) << est.status();
    return est.MoveValue();
  }

  double Estimate(Estimator& est, NodeId s, NodeId t, uint32_t k = 4000,
                  uint64_t seed = 11) {
    EstimateOptions opts;
    opts.num_samples = k;
    opts.seed = seed;
    const Result<EstimateResult> r = est.Estimate({s, t}, opts);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->reliability : -1.0;
  }
};

TEST_P(EdgeCaseSweep, TwoIsolatedNodes) {
  GraphBuilder b(2);
  const UncertainGraph g = b.Build().MoveValue();
  auto est = Make(g);
  EXPECT_DOUBLE_EQ(Estimate(*est, 0, 1, 100), 0.0);
  EXPECT_DOUBLE_EQ(Estimate(*est, 0, 0, 100), 1.0);
}

TEST_P(EdgeCaseSweep, SelfLoopsAreHarmless) {
  const UncertainGraph g = GraphFromString("0 0 0.9\n0 1 0.5\n1 1 0.1\n");
  auto est = Make(g);
  EXPECT_NEAR(Estimate(*est, 0, 1), 0.5, SamplingTolerance(0.5, 4000, 5.0));
}

TEST_P(EdgeCaseSweep, AllCertainEdges) {
  const UncertainGraph g = GraphFromString("0 1 1\n1 2 1\n2 3 1\n3 4 1\n");
  auto est = Make(g);
  EXPECT_DOUBLE_EQ(Estimate(*est, 0, 4, 200), 1.0);
}

TEST_P(EdgeCaseSweep, NearZeroProbabilityChain) {
  const UncertainGraph g = GraphFromString("0 1 0.001\n1 2 0.001\n");
  auto est = Make(g);
  // True reliability 1e-6: any estimate above ~1e-3 would be a bug.
  EXPECT_LT(Estimate(*est, 0, 2, 4000), 5e-3);
}

TEST_P(EdgeCaseSweep, HubFanInFanOut) {
  // 10 sources -> hub -> 10 sinks; query crosses the hub.
  GraphBuilder b(21);
  for (NodeId v = 0; v < 10; ++v) b.AddEdge(v, 10, 0.6).CheckOK();
  for (NodeId v = 11; v < 21; ++v) b.AddEdge(10, v, 0.6).CheckOK();
  const UncertainGraph g = b.Build().MoveValue();
  const double exact = 0.36;
  auto est = Make(g);
  EXPECT_NEAR(Estimate(*est, 0, 15), exact, SamplingTolerance(exact, 4000, 5.0));
}

TEST_P(EdgeCaseSweep, LongChainWithModerateProbs) {
  // 12-edge chain of p=0.9: R = 0.9^12 ~= 0.2824.
  GraphBuilder b(13);
  for (NodeId v = 0; v < 12; ++v) b.AddEdge(v, v + 1, 0.9).CheckOK();
  const UncertainGraph g = b.Build().MoveValue();
  const double exact = std::pow(0.9, 12);
  auto est = Make(g);
  EXPECT_NEAR(Estimate(*est, 0, 12), exact,
              SamplingTolerance(exact, 4000, 5.0) + 0.01);
}

TEST_P(EdgeCaseSweep, DenseBidirectedClique) {
  // K6 with p = 0.3 both directions: heavy cycles stress BFS Sharing's
  // fixpoint and recursive conditioning alike.
  GraphBuilder b(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) b.AddBidirectedEdge(u, v, 0.3).CheckOK();
  }
  const UncertainGraph g = b.Build().MoveValue();
  // The factoring oracle expands millions of steps on K6; every estimator's
  // instance shares one run.
  static const double exact = *ExactReliabilityFactoring(g, 0, 5);
  auto est = Make(g);
  EXPECT_NEAR(Estimate(*est, 0, 5), exact,
              SamplingTolerance(exact, 4000, 5.0) + 0.015);
}

TEST_P(EdgeCaseSweep, TargetInOtherComponent) {
  const UncertainGraph g = GraphFromString("0 1 0.9\n2 3 0.9\n");
  auto est = Make(g);
  EXPECT_DOUBLE_EQ(Estimate(*est, 0, 3, 300), 0.0);
}

TEST_P(EdgeCaseSweep, ReverseDirectionOnlyIsZero) {
  const UncertainGraph g = GraphFromString("1 0 0.99\n2 1 0.99\n");
  auto est = Make(g);
  EXPECT_DOUBLE_EQ(Estimate(*est, 0, 2, 300), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, EdgeCaseSweep, ::testing::ValuesIn(TheSixEstimators()),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      std::string name = EstimatorKindName(info.param);
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

}  // namespace
}  // namespace relcomp
