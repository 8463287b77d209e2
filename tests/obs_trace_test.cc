#include "obs/trace.h"

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "test_util.h"

namespace relcomp::obs {
namespace {

using ::relcomp::testing::RandomSmallGraph;

TEST(TraceBufferTest, RecordsNestedSpans) {
  TraceBuffer buffer;
  buffer.Start(/*query_id=*/7, /*thread=*/3);
  const uint32_t root = buffer.BeginAt(SpanKind::kQuery, 100);
  const uint32_t child = buffer.BeginAt(SpanKind::kCacheProbe, 110, root);
  buffer.EndAt(child, 120);
  buffer.EndAt(root, 200);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[root].kind, SpanKind::kQuery);
  EXPECT_EQ(buffer[root].parent_id, TraceBuffer::kNone);
  EXPECT_EQ(buffer[root].query_id, 7u);
  EXPECT_EQ(buffer[root].thread, 3u);
  EXPECT_EQ(buffer[root].begin_ns, 100u);
  EXPECT_EQ(buffer[root].end_ns, 200u);
  EXPECT_EQ(buffer[child].parent_id, root);
  EXPECT_EQ(buffer[child].end_ns, 120u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceBufferTest, OverflowCountsDropsAndStaysSafe) {
  TraceBuffer buffer;
  buffer.Start(1, 0);
  for (uint32_t i = 0; i < TraceBuffer::kCapacity + 10; ++i) {
    const uint32_t span = buffer.Begin(SpanKind::kStratum, TraceBuffer::kNone,
                                       i);
    buffer.End(span);  // End(kNone) must be a no-op past capacity
  }
  EXPECT_EQ(buffer.size(), TraceBuffer::kCapacity);
  EXPECT_EQ(buffer.dropped(), 10u);
  // Start re-arms for the next query.
  buffer.Start(2, 0);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceBufferTest, ScopedSpanOnNullBufferIsNoop) {
  ScopedSpan span(nullptr, SpanKind::kPrepare);
  EXPECT_EQ(span.id(), TraceBuffer::kNone);  // and no crash on destruction
}

TEST(TraceRingTest, WraparoundKeepsNewestSpans) {
  TraceRing ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceSpan span;
    span.query_id = i;
    span.begin_ns = i;
    span.end_ns = i + 1;
    ring.Publish(span);
  }
  EXPECT_EQ(ring.published(), 20u);
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // Oldest first, and only the newest 8 survive the wraparound.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].query_id, 12 + i);
  }
}

/// Span number `ticket`: every field is a function of the ticket, so a copy
/// mixing two writes disagrees with the span its query_id names.
TraceSpan TicketSpan(uint64_t ticket) {
  TraceSpan span;
  span.query_id = ticket;
  span.begin_ns = 3 * ticket;
  span.end_ns = 3 * ticket + 1;
  span.span_id = static_cast<uint32_t>(ticket);
  span.parent_id = static_cast<uint32_t>(ticket * 5);
  span.detail = static_cast<uint32_t>(ticket * 7);
  span.thread = static_cast<uint32_t>(ticket * 11);
  span.kind = static_cast<SpanKind>(ticket % 15);
  return span;
}

bool SameSpan(const TraceSpan& a, const TraceSpan& b) {
  return a.query_id == b.query_id && a.begin_ns == b.begin_ns &&
         a.end_ns == b.end_ns && a.span_id == b.span_id &&
         a.parent_id == b.parent_id && a.detail == b.detail &&
         a.thread == b.thread && a.kind == b.kind;
}

TEST(TraceRingTest, SnapshotRacingPublishReturnsOnlyWholeSpans) {
  // One writer laps an 8-slot ring while a reader snapshots it in a loop:
  // each returned span must be one whole write. Under ThreadSanitizer this
  // also checks the slot hand-off for data races.
  TraceRing ring(8);
  constexpr uint64_t kSpans = 200000;
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    for (uint64_t ticket = 1; ticket <= kSpans; ++ticket) {
      ring.Publish(TicketSpan(ticket));
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t returned = 0;
  uint64_t torn = 0;
  reading.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    for (const TraceSpan& span : ring.Snapshot()) {
      ++returned;
      if (!SameSpan(span, TicketSpan(span.query_id))) ++torn;
    }
  }
  writer.join();
  EXPECT_EQ(torn, 0u) << "of " << returned << " spans returned mid-write";
  // Quiescent: the newest 8 spans, whole.
  const std::vector<TraceSpan> last = ring.Snapshot();
  ASSERT_EQ(last.size(), 8u);
  for (size_t i = 0; i < last.size(); ++i) {
    EXPECT_TRUE(SameSpan(last[i], TicketSpan(kSpans - 7 + i))) << i;
  }
}

TEST(TracerTest, DisengagedByDefault) {
  Tracer tracer;
  EXPECT_FALSE(tracer.engaged());
  EXPECT_EQ(tracer.ring(), nullptr);
  EXPECT_FALSE(tracer.ShouldSample(1));
}

TEST(TracerTest, SamplingIsDeterministicInTheQueryId) {
  TracerOptions options;
  options.sample_rate = 0.5;
  Tracer a(options);
  Tracer b(options);
  ASSERT_TRUE(a.engaged());
  size_t sampled = 0;
  for (uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_EQ(a.ShouldSample(id), b.ShouldSample(id)) << "id " << id;
    if (a.ShouldSample(id)) ++sampled;
  }
  // A hash-based coin at rate 0.5 over 1000 ids lands well inside [350, 650].
  EXPECT_GT(sampled, 350u);
  EXPECT_LT(sampled, 650u);

  options.sample_rate = 1.0;
  Tracer always(options);
  for (uint64_t id = 1; id <= 100; ++id) EXPECT_TRUE(always.ShouldSample(id));
}

TEST(TracerTest, FinishPublishesSampledSpans) {
  TracerOptions options;
  options.sample_rate = 1.0;
  options.ring_capacity = 64;
  Tracer tracer(options);
  TraceBuffer buffer;
  buffer.Start(tracer.NextQueryId(), 0);
  const uint32_t root = buffer.BeginAt(SpanKind::kQuery, 10);
  buffer.EndAt(root, 20);
  tracer.Finish(buffer);
  EXPECT_EQ(tracer.sampled_queries(), 1u);
  ASSERT_NE(tracer.ring(), nullptr);
  const std::vector<TraceSpan> spans = tracer.ring()->Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kQuery);
}

TEST(TracerTest, SlowQueryLogFormatsSpanTrees) {
  TracerOptions options;
  options.slow_query_ms = 1e-6;  // everything is "slow"
  Tracer tracer(options);
  ASSERT_TRUE(tracer.engaged());
  TraceBuffer buffer;
  buffer.Start(tracer.NextQueryId(), 0);
  const uint32_t root = buffer.BeginAt(SpanKind::kQuery, 0);
  const uint32_t child = buffer.BeginAt(SpanKind::kEstimate, 1000, root);
  buffer.EndAt(child, 500000);
  buffer.EndAt(root, 1000000);
  tracer.Finish(buffer);
  EXPECT_EQ(tracer.slow_queries(), 1u);
  const std::vector<std::string> log = tracer.SlowQueryLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find(SpanKindName(SpanKind::kQuery)), std::string::npos);
  EXPECT_NE(log[0].find(SpanKindName(SpanKind::kEstimate)), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

std::vector<EngineQuery> MixedWorkload(NodeId num_nodes) {
  std::vector<EngineQuery> queries;
  for (NodeId t = 1; t < num_nodes && t < 12; ++t) {
    queries.push_back(EngineQuery::St(0, t));
  }
  queries.push_back(EngineQuery::TopK(0, 4));
  queries.push_back(EngineQuery::TopK(1, 3));
  queries.push_back(EngineQuery::ReliableSet(0, 0.4));
  return queries;
}

EngineOptions TracedOptions(size_t threads, double sample_rate) {
  EngineOptions options;
  options.num_threads = threads;
  options.num_samples = 200;
  options.num_strata = 4;
  options.seed = 20190410;
  options.trace_sample_rate = sample_rate;
  return options;
}

TEST(EngineTraceTest, UntracedEngineHasNoRing) {
  const UncertainGraph graph = RandomSmallGraph(16, 40, 0.3, 0.9, 2);
  auto engine = QueryEngine::Create(graph, TracedOptions(2, 0.0)).MoveValue();
  EXPECT_FALSE(engine->tracer().engaged());
  EXPECT_EQ(engine->tracer().ring(), nullptr);
  ASSERT_TRUE(engine->RunBatch(MixedWorkload(16)).ok());
  EXPECT_EQ(engine->tracer().sampled_queries(), 0u);
}

TEST(EngineTraceTest, SpanTreesAreWellFormedAtEveryThreadCount) {
  const UncertainGraph graph = RandomSmallGraph(20, 55, 0.2, 0.9, 9);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto engine =
        QueryEngine::Create(graph, TracedOptions(threads, 1.0)).MoveValue();
    const std::vector<EngineQuery> queries = MixedWorkload(20);
    ASSERT_TRUE(engine->RunBatch(queries).ok());
    EXPECT_EQ(engine->tracer().sampled_queries(), queries.size())
        << threads << " threads";
    ASSERT_NE(engine->tracer().ring(), nullptr);
    const std::vector<TraceSpan> spans = engine->tracer().ring()->Snapshot();
    ASSERT_FALSE(spans.empty());

    // Group by query and index by span id; then every query's tree must have
    // exactly one kQuery root, every child must point at a resident parent,
    // and time must be sane.
    std::map<uint64_t, std::map<uint32_t, TraceSpan>> by_query;
    for (const TraceSpan& span : spans) {
      by_query[span.query_id][span.span_id] = span;
    }
    EXPECT_EQ(by_query.size(), queries.size()) << threads << " threads";
    for (const auto& [query_id, tree] : by_query) {
      size_t roots = 0;
      for (const auto& [span_id, span] : tree) {
        EXPECT_GE(span.end_ns, span.begin_ns)
            << "query " << query_id << " span " << span_id;
        if (span.parent_id == TraceBuffer::kNone) {
          ++roots;
          EXPECT_EQ(span.kind, SpanKind::kQuery) << "query " << query_id;
        } else {
          ASSERT_TRUE(tree.count(span.parent_id) != 0)
              << "query " << query_id << " span " << span_id
              << " has dangling parent " << span.parent_id;
          const TraceSpan& parent = tree.at(span.parent_id);
          EXPECT_GE(span.begin_ns, parent.begin_ns)
              << "query " << query_id << " span " << span_id;
        }
      }
      EXPECT_EQ(roots, 1u) << "query " << query_id;
    }
  }
}

void ExpectIdenticalResults(const std::vector<EngineResult>& a,
                            const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0)
        << "query " << i;
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size()) << "query " << i;
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node)
          << "query " << i << " target " << j;
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0)
          << "query " << i << " target " << j;
    }
    EXPECT_EQ(a[i].num_samples, b[i].num_samples) << "query " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "query " << i;
  }
}

TEST(EngineTraceTest, AnswersAreBitIdenticalTracingOnOrOff) {
  // Tracing must never be part of the determinism contract: full-rate
  // sampling plus the slow-query log yields bit-identical answers to a cold
  // untraced engine, at every thread count.
  const UncertainGraph graph = RandomSmallGraph(20, 55, 0.2, 0.9, 13);
  const std::vector<EngineQuery> queries = MixedWorkload(20);

  auto baseline_engine =
      QueryEngine::Create(graph, TracedOptions(1, 0.0)).MoveValue();
  const std::vector<EngineResult> baseline =
      baseline_engine->RunBatch(queries).MoveValue();

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EngineOptions options = TracedOptions(threads, 1.0);
    options.slow_query_ms = 1e-3;  // exercise the slow-query path too
    auto traced = QueryEngine::Create(graph, options).MoveValue();
    const std::vector<EngineResult> results =
        traced->RunBatch(queries).MoveValue();
    ExpectIdenticalResults(baseline, results);
  }
}

}  // namespace
}  // namespace relcomp::obs
