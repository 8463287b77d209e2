// Raw vs compact storage-layout parity: the two layouts must be
// observationally identical (same structure, bitwise-equal probabilities,
// bit-identical engine answers for every workload kind and thread count),
// with the compact layout strictly smaller on real datasets.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "graph/compact_adjacency.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "graph/uncertain_graph.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::RandomSmallGraph;

UncertainGraph Rebuild(const UncertainGraph& g, StorageLayout layout) {
  return GraphBuilder::FromGraph(g).Build(layout).MoveValue();
}

/// Structural parity: node/edge counts, degrees, adjacency entries in the
/// same slot order, canonical edge records, bitwise-equal probabilities.
void ExpectStructurallyIdentical(const UncertainGraph& raw,
                                 const UncertainGraph& compact) {
  ASSERT_EQ(raw.num_nodes(), compact.num_nodes());
  ASSERT_EQ(raw.num_edges(), compact.num_edges());
  for (EdgeId e = 0; e < raw.num_edges(); ++e) {
    const EdgeRecord a = raw.edge(e);
    const EdgeRecord b = compact.edge(e);
    EXPECT_EQ(a.tail, b.tail) << "edge " << e;
    EXPECT_EQ(a.head, b.head) << "edge " << e;
    EXPECT_EQ(std::memcmp(&a.prob, &b.prob, sizeof(double)), 0) << "edge " << e;
    const double pa = raw.prob(e);
    const double pb = compact.prob(e);
    EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0) << "edge " << e;
  }
  for (NodeId v = 0; v < raw.num_nodes(); ++v) {
    ASSERT_EQ(raw.OutDegree(v), compact.OutDegree(v)) << "node " << v;
    ASSERT_EQ(raw.InDegree(v), compact.InDegree(v)) << "node " << v;
    const auto raw_out = raw.OutEdges(v);
    const auto cmp_out = compact.OutEdges(v);
    ASSERT_EQ(raw_out.size(), cmp_out.size());
    for (size_t i = 0; i < raw_out.size(); ++i) {
      const AdjEntry ra = raw_out[i];
      const AdjEntry ca = cmp_out[i];
      EXPECT_EQ(ra.neighbor, ca.neighbor) << v << "/" << i;
      EXPECT_EQ(ra.edge, ca.edge) << v << "/" << i;
      EXPECT_EQ(std::memcmp(&ra.prob, &ca.prob, sizeof(double)), 0)
          << v << "/" << i;
    }
    const auto raw_in = raw.InEdges(v);
    const auto cmp_in = compact.InEdges(v);
    ASSERT_EQ(raw_in.size(), cmp_in.size());
    for (size_t i = 0; i < raw_in.size(); ++i) {
      const AdjEntry ra = raw_in[i];
      const AdjEntry ca = cmp_in[i];
      EXPECT_EQ(ra.neighbor, ca.neighbor) << v << "/" << i;
      EXPECT_EQ(ra.edge, ca.edge) << v << "/" << i;
    }
  }
}

TEST(StorageLayout, CompactIsStructurallyIdenticalToRaw) {
  const UncertainGraph raw = RandomSmallGraph(40, 160, 0.1, 0.9, 71);
  ASSERT_EQ(raw.layout(), StorageLayout::kRaw);
  const UncertainGraph compact = Rebuild(raw, StorageLayout::kCompact);
  ASSERT_EQ(compact.layout(), StorageLayout::kCompact);
  ExpectStructurallyIdentical(raw, compact);
}

TEST(StorageLayout, CompactHandlesIsolatedNodesAndEmptyGraphs) {
  {
    GraphBuilder b(5);  // all isolated
    const UncertainGraph g = b.Build(StorageLayout::kCompact).MoveValue();
    EXPECT_EQ(g.num_nodes(), 5u);
    EXPECT_EQ(g.num_edges(), 0u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(g.OutDegree(v), 0u);
      EXPECT_TRUE(g.OutEdges(v).empty());
      EXPECT_TRUE(g.InEdges(v).empty());
    }
  }
  {
    GraphBuilder b(6);
    b.AddEdge(0, 5, 0.5).CheckOK();  // nodes 1..4 isolated
    const UncertainGraph raw = b.Build(StorageLayout::kRaw).MoveValue();
    const UncertainGraph compact = b.Build(StorageLayout::kCompact).MoveValue();
    ExpectStructurallyIdentical(raw, compact);
  }
}

TEST(StorageLayout, RrrOffsetPathIsExercisedAndIdentical) {
  // Dense multigraph: m >= 16n pushes the unary offset sequence below the
  // 1/16 ones-density threshold, so the builder picks the RRR variant.
  GraphBuilder b(10);
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(10));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(10));
    b.AddEdge(u, v, 0.1 + 0.8 * rng.NextDouble()).CheckOK();
  }
  const UncertainGraph raw = b.Build(StorageLayout::kRaw).MoveValue();
  const UncertainGraph compact = b.Build(StorageLayout::kCompact).MoveValue();
  EXPECT_TRUE(compact.compact().out().use_rrr);
  EXPECT_TRUE(compact.compact().in().use_rrr);
  ExpectStructurallyIdentical(raw, compact);
}

TEST(StorageLayout, ProbDictionaryIsExactOnBundledDatasets) {
  // The bundled generators use few distinct probabilities, so the dictionary
  // path must engage — and must reproduce every probability bitwise.
  for (const DatasetId id : {DatasetId::kLastFm, DatasetId::kNetHept}) {
    const Dataset d = MakeDataset(id, Scale::kTiny, 1234).MoveValue();
    const UncertainGraph compact = Rebuild(d.graph, StorageLayout::kCompact);
    SCOPED_TRACE(d.name);
    EXPECT_TRUE(compact.compact().uses_dictionary());
    EXPECT_LE(compact.compact().prob_dictionary().size(),
              CompactAdjacency::kMaxProbDictSize);
    ExpectStructurallyIdentical(d.graph, compact);
  }
}

TEST(StorageLayout, FullWidthFallbackStaysExactPastDictionaryCap) {
  // > 65536 distinct probabilities: the builder must fall back to full-width
  // storage rather than quantize — estimates never silently change.
  GraphBuilder b(300);
  Rng rng(88);
  for (int i = 0; i < 70000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(300));
    NodeId v = static_cast<NodeId>(rng.UniformInt(300));
    if (u == v) v = (v + 1) % 300;
    b.AddEdge(u, v, 0.05 + 0.9 * rng.NextDouble()).CheckOK();
  }
  const UncertainGraph raw = b.Build(StorageLayout::kRaw).MoveValue();
  const UncertainGraph compact = b.Build(StorageLayout::kCompact).MoveValue();
  EXPECT_FALSE(compact.compact().uses_dictionary());
  for (EdgeId e = 0; e < raw.num_edges(); ++e) {
    const double pa = raw.prob(e);
    const double pb = compact.prob(e);
    ASSERT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0) << "edge " << e;
  }
}

TEST(StorageLayout, CompactShrinksBytesOnDataset) {
  const Dataset d =
      MakeDataset(DatasetId::kLastFm, Scale::kSmall, 42).MoveValue();
  const UncertainGraph compact = Rebuild(d.graph, StorageLayout::kCompact);
  EXPECT_EQ(d.graph.MemoryBytes(),
            Rebuild(d.graph, StorageLayout::kRaw).MemoryBytes());
  // The storage gate: compact <= 0.6x raw resident bytes; structurally the
  // compact layout should land far below that.
  EXPECT_LT(static_cast<double>(compact.MemoryBytes()),
            0.6 * static_cast<double>(d.graph.MemoryBytes()))
      << "compact=" << compact.MemoryBytes()
      << " raw=" << d.graph.MemoryBytes();
  EXPECT_GT(compact.MemoryBytes(), 0u);
}

TEST(StorageLayout, FromGraphRoundTripsBothLayouts) {
  const UncertainGraph raw = RandomSmallGraph(25, 80, 0.2, 0.8, 99);
  const UncertainGraph compact = Rebuild(raw, StorageLayout::kCompact);
  // Rebuilding the raw layout from the compact graph must recover the
  // original bit for bit (edge ids, order, probabilities).
  const UncertainGraph back = Rebuild(compact, StorageLayout::kRaw);
  ExpectStructurallyIdentical(raw, back);
}

// ---------------------------------------------------------------------------
// Engine-level parity: bit-identical answers across layouts
// ---------------------------------------------------------------------------

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
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(
        std::memcmp(&a[i].reliability, &b[i].reliability, sizeof(double)), 0);
    EXPECT_EQ(a[i].num_samples, b[i].num_samples);
    EXPECT_EQ(a[i].seed, b[i].seed);
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size());
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
  }
}

TEST(StorageLayout, EngineAnswersAreBitIdenticalAcrossLayouts) {
  const UncertainGraph raw = RandomSmallGraph(30, 90, 0.2, 0.9, 31);
  const UncertainGraph compact = Rebuild(raw, StorageLayout::kCompact);
  const std::vector<EngineQuery> queries = MixedBatch(raw, 40);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    EngineOptions base;
    base.kind = kind;
    base.num_samples = 300;
    base.seed = 20190411;
    base.num_threads = 1;
    auto raw_engine = QueryEngine::Create(raw, base).MoveValue();
    const std::vector<EngineResult> expected =
        raw_engine->RunBatch(queries).MoveValue();
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      EngineOptions options = base;
      options.num_threads = threads;
      auto engine = QueryEngine::Create(compact, options).MoveValue();
      const std::vector<EngineResult> results =
          engine->RunBatch(queries).MoveValue();
      ExpectBitIdenticalResults(expected, results);
    }
  }
}

TEST(StorageLayout, EngineExportsBytesPerEdgeGauge) {
  const UncertainGraph compact = Rebuild(
      RandomSmallGraph(20, 60, 0.2, 0.8, 12), StorageLayout::kCompact);
  EngineOptions options;
  options.num_samples = 50;
  auto engine = QueryEngine::Create(compact, options).MoveValue();
  const double bytes =
      engine->metrics().GetGauge("graph_memory_bytes")->Value();
  const double per_edge = engine->metrics()
                              .GetGauge("graph_bytes_per_edge", "layout",
                                        "compact")
                              ->Value();
  EXPECT_EQ(bytes, static_cast<double>(compact.MemoryBytes()));
  EXPECT_NEAR(per_edge, bytes / static_cast<double>(compact.num_edges()),
              1e-9);
}

}  // namespace
}  // namespace relcomp
