// LazySamplingBfs against a plain reference: the textbook lazy-sampling BFS
// (epoch-marked visited array, Rng::Bernoulli per fresh arc, explicit depth
// per queue entry). Hit counts, per-node reach counts and the RNG stream
// position after every call must match exactly, over random graphs with
// certain edges, self-loops and parallel edges, in both storage layouts,
// with and without hop bounds and edge conditioning.

#include "reliability/lazy_sampling_bfs.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/rng.h"
#include "graph/graph_builder.h"

namespace relcomp {
namespace {

/// The reference sampler. Returns hits; adds per-node reach counts (source
/// excluded) into `reach` when non-null.
uint32_t ReferenceSample(const UncertainGraph& graph,
                         const LazySamplingBfs::Walk& walk,
                         uint32_t num_samples, Rng& rng,
                         std::vector<uint32_t>* reach) {
  std::vector<uint32_t> visited(graph.num_nodes(), 0);
  std::vector<NodeId> queue;
  std::vector<uint32_t> depth;
  uint32_t hits = 0;
  for (uint32_t epoch = 1; epoch <= num_samples; ++epoch) {
    queue.assign(1, walk.source);
    depth.assign(1, 0);
    visited[walk.source] = epoch;
    bool reached = false;
    for (size_t head = 0; head < queue.size() && !reached; ++head) {
      if (depth[head] >= walk.max_hops) continue;
      for (const AdjEntry& a : graph.OutEdges(queue[head])) {
        if (visited[a.neighbor] == epoch) continue;
        const EdgeState state = walk.states == nullptr
                                    ? EdgeState::kUndetermined
                                    : walk.states[a.edge];
        if (state == EdgeState::kExcluded) continue;
        if (state == EdgeState::kUndetermined && !rng.Bernoulli(a.prob)) {
          continue;
        }
        if (a.neighbor == walk.target) {
          reached = true;
          break;
        }
        visited[a.neighbor] = epoch;
        queue.push_back(a.neighbor);
        depth.push_back(depth[head] + 1);
        if (reach != nullptr) ++(*reach)[a.neighbor];
      }
    }
    hits += reached;
  }
  return hits;
}

/// `n` nodes with `degree` random out-edges each (self-loops and parallel
/// edges included); a `certain_share` of them have p = 1.
UncertainGraph RandomGraph(uint32_t n, uint32_t degree, double certain_share,
                           uint64_t seed, StorageLayout layout) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t j = 0; j < degree; ++j) {
      const NodeId w = static_cast<NodeId>(rng.UniformInt(n));
      const double p = rng.NextDouble() < certain_share
                           ? 1.0
                           : 0.01 + 0.98 * rng.NextDouble();
      builder.AddEdge(v, w, p).CheckOK();
    }
  }
  return builder.Build(layout).MoveValue();
}

struct GraphCase {
  const char* name;
  double certain_share;
  StorageLayout layout;
};

class LazySamplingBfsTest : public ::testing::TestWithParam<GraphCase> {
 protected:
  UncertainGraph graph_ = RandomGraph(90, 3, GetParam().certain_share, 4242,
                                      GetParam().layout);
};

TEST_P(LazySamplingBfsTest, CountHitsMatchesReference) {
  LazySamplingBfs sampler(graph_);
  Rng picks(1);
  std::vector<EdgeState> states(graph_.num_edges());
  for (int trial = 0; trial < 120; ++trial) {
    LazySamplingBfs::Walk walk;
    walk.source = static_cast<NodeId>(picks.UniformInt(graph_.num_nodes()));
    do {
      walk.target = static_cast<NodeId>(picks.UniformInt(graph_.num_nodes()));
    } while (walk.target == walk.source);
    if (trial % 3 == 1) walk.max_hops = static_cast<uint32_t>(trial % 5);
    if (trial % 4 == 2) {
      for (EdgeState& s : states) {
        s = static_cast<EdgeState>(picks.UniformInt(3));
      }
      walk.states = states.data();
    }
    const uint64_t seed = 500 + trial;
    Rng expected_rng(seed);
    Rng actual_rng(seed);
    const uint32_t samples = 1 + trial * 7;
    EXPECT_EQ(sampler.CountHits(walk, samples, actual_rng),
              ReferenceSample(graph_, walk, samples, expected_rng, nullptr))
        << "trial " << trial;
    // Same stream position: the next draw agrees.
    EXPECT_EQ(actual_rng.NextU64(), expected_rng.NextU64())
        << "trial " << trial;
  }
}

TEST_P(LazySamplingBfsTest, AccumulateReachedMatchesReference) {
  LazySamplingBfs sampler(graph_);
  for (NodeId source : {0u, 11u, 57u}) {
    for (uint32_t max_hops : {LazySamplingBfs::kUnbounded, 2u}) {
      LazySamplingBfs::Walk walk;
      walk.source = source;
      walk.max_hops = max_hops;
      Rng expected_rng(source + 1);
      Rng actual_rng(source + 1);
      std::vector<uint32_t> expected(graph_.num_nodes(), 0);
      std::vector<uint32_t> actual(graph_.num_nodes(), 0);
      ReferenceSample(graph_, walk, 700, expected_rng, &expected);
      ASSERT_TRUE(
          sampler.AccumulateReached(walk, 700, actual_rng, actual).ok());
      EXPECT_EQ(actual, expected) << "source " << source;
      EXPECT_EQ(actual[source], 0u);
      EXPECT_EQ(actual_rng.NextU64(), expected_rng.NextU64());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, LazySamplingBfsTest,
    ::testing::Values(GraphCase{"uncertain_raw", 0.0, StorageLayout::kRaw},
                      GraphCase{"uncertain_compact", 0.0,
                                StorageLayout::kCompact},
                      GraphCase{"mixed_raw", 0.3, StorageLayout::kRaw},
                      GraphCase{"mixed_compact", 0.3, StorageLayout::kCompact},
                      GraphCase{"certain_raw", 1.0, StorageLayout::kRaw}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LazySamplingBfsEdgeTest, ZeroHopsNeverDraws) {
  const UncertainGraph graph = RandomGraph(20, 3, 0.0, 7, StorageLayout::kRaw);
  LazySamplingBfs sampler(graph);
  Rng rng(3);
  Rng untouched(3);
  EXPECT_EQ(sampler.CountHits({.source = 0, .target = 1, .max_hops = 0}, 50,
                              rng),
            0u);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(LazySamplingBfsEdgeTest, CertainPathAlwaysHitsWithoutDrawing) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0).CheckOK();
  builder.AddEdge(1, 2, 1.0).CheckOK();
  builder.AddEdge(2, 3, 1.0).CheckOK();
  const UncertainGraph graph = builder.Build().MoveValue();
  LazySamplingBfs sampler(graph);
  Rng rng(9);
  Rng untouched(9);
  EXPECT_EQ(sampler.CountHits({.source = 0, .target = 3}, 10, rng), 10u);
  EXPECT_EQ(sampler.CountHits({.source = 0, .target = 3, .max_hops = 2}, 10,
                              rng),
            0u);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(LazySamplingBfsEdgeTest, CancelledTokenReturnsStatusAndNoCount) {
  const UncertainGraph graph = RandomGraph(30, 3, 0.0, 8, StorageLayout::kRaw);
  LazySamplingBfs sampler(graph);
  CancelToken token;
  token.Cancel();
  Rng rng(1);
  Rng untouched(1);
  const Result<uint32_t> hits =
      sampler.CountHits({.source = 0, .target = 5}, 100, rng, &token);
  EXPECT_EQ(hits.status().code(), StatusCode::kCancelled);
  std::vector<uint32_t> reach(graph.num_nodes(), 0);
  EXPECT_EQ(
      sampler.AccumulateReached({.source = 0}, 100, rng, reach, &token).code(),
      StatusCode::kCancelled);
  // Cancelled before the first sample: nothing was drawn.
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
  // A live token changes nothing, the RNG position included.
  CancelToken live;
  Rng a(2);
  Rng b(2);
  EXPECT_EQ(*sampler.CountHits({.source = 0, .target = 5}, 300, a, &live),
            sampler.CountHits({.source = 0, .target = 5}, 300, b));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(LazySamplingBfsEdgeTest, WorkingBytesIsOneBytePlusOneNodeIdPerNode) {
  const UncertainGraph graph = RandomGraph(64, 2, 0.0, 9, StorageLayout::kRaw);
  EXPECT_EQ(LazySamplingBfs(graph).WorkingBytes(),
            64 * (sizeof(uint8_t) + sizeof(NodeId)));
}

}  // namespace
}  // namespace relcomp
