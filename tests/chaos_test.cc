// Chaos suite: deterministic fault injection, deadlines, cancellation and
// load shedding — the engine's degraded modes.
//
// The core assertions, for every injection mix at 1 / 2 / 8 threads:
//   - the engine never hangs (a watchdog aborts the run if it stalls),
//   - the outcome partition holds: engine_executed_total +
//     engine_coalesced_total + engine_failures_total +
//     result_cache_hits_total == the engine_query_latency_ns count,
//   - every query that *succeeds* under injection is bit-identical to the
//     fault-free run (injection decisions are content-derived, so the failed
//     set is also identical across thread counts).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "engine/query_engine.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::CounterValue;
using ::relcomp::testing::QueriesRecorded;
using ::relcomp::testing::RandomSmallGraph;
using ::relcomp::testing::Watchdog;

/// Configures the global injector for one scope; always disarms on exit so a
/// failing assertion cannot leak an armed injector into later tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultInjector::Global().Configure(plan);
  }
  ~ScopedFaultPlan() { FaultInjector::Global().Disable(); }
};

/// Deterministic mixed workload touching every kind (st, top-k,
/// reliable-set, distance) with repeated sources so coalescing, the sweep
/// cache, and the scout pass all engage.
std::vector<EngineQuery> ChaosBatch(const UncertainGraph& graph, size_t n) {
  std::vector<EngineQuery> queries;
  const NodeId nodes = graph.num_nodes();
  for (NodeId s = 0; queries.size() < n; ++s) {
    const NodeId a = s % nodes;
    const NodeId b = (s + 7) % nodes;
    if (a == b) continue;
    queries.push_back(EngineQuery::St(a, b));
    queries.push_back(EngineQuery::TopK(a % 6, 5));
    queries.push_back(EngineQuery::ReliableSet(a % 6, 0.25));
    queries.push_back(EngineQuery::Distance(a, b, 3));
  }
  queries.resize(n);
  return queries;
}

EngineOptions ChaosOptions(size_t threads, EstimatorKind kind) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = 300;
  options.num_strata = 4;
  options.seed = 20190809;
  return options;
}

struct RunOutcome {
  std::vector<EngineResult> results;
  /// Kept alive so the caller can read its registry.
  std::unique_ptr<QueryEngine> engine;
};

RunOutcome RunChaosBatch(const UncertainGraph& graph,
                         const EngineOptions& options,
                         const std::vector<EngineQuery>& queries) {
  RunOutcome outcome;
  outcome.engine = QueryEngine::Create(graph, options).MoveValue();
  outcome.results = outcome.engine->RunBatch(queries).MoveValue();
  return outcome;
}

/// The engine's outcome-partition invariant: every query resolved exactly
/// one way. Holds in every degraded mode — shed queries are never recorded
/// as queries, and deadline misses are failures.
void ExpectPartitionHolds(const QueryEngine& engine) {
  obs::MetricsRegistry& metrics = engine.metrics();
  const uint64_t executed = CounterValue(metrics, "engine_executed_total");
  const uint64_t coalesced = CounterValue(metrics, "engine_coalesced_total");
  const uint64_t failures = CounterValue(metrics, "engine_failures_total");
  const uint64_t cache_hits = CounterValue(metrics, "result_cache_hits_total");
  const uint64_t queries = QueriesRecorded(metrics);
  EXPECT_EQ(executed + coalesced + failures + cache_hits, queries)
      << "executed=" << executed << " coalesced=" << coalesced
      << " failures=" << failures << " cache_hits=" << cache_hits
      << " queries=" << queries;
}

uint64_t ShedTotal(obs::MetricsRegistry& metrics) {
  return CounterValue(metrics, "engine_shed_total", "reason", "queue_full") +
         CounterValue(metrics, "engine_shed_total", "reason", "overload");
}

void ExpectSameTargets(const EngineResult& a, const EngineResult& b,
                       size_t index) {
  ASSERT_EQ(a.targets.size(), b.targets.size()) << "query " << index;
  for (size_t t = 0; t < a.targets.size(); ++t) {
    EXPECT_EQ(a.targets[t].node, b.targets[t].node) << "query " << index;
    EXPECT_EQ(std::memcmp(&a.targets[t].reliability,
                          &b.targets[t].reliability, sizeof(double)),
              0)
        << "query " << index << " target " << t;
  }
}

/// Successful answers must be bit-identical to the fault-free baseline;
/// failed sets must agree as booleans (messages may differ — "first failure
/// wins" races pick different strata text, but never different queries).
void ExpectDegradedMatchesBaseline(const std::vector<EngineResult>& degraded,
                                   const std::vector<EngineResult>& baseline,
                                   bool expect_same_failed_set) {
  ASSERT_EQ(degraded.size(), baseline.size());
  for (size_t i = 0; i < degraded.size(); ++i) {
    if (degraded[i].ok()) {
      ASSERT_TRUE(baseline[i].ok()) << "query " << i;
      EXPECT_EQ(std::memcmp(&degraded[i].reliability,
                            &baseline[i].reliability, sizeof(double)),
                0)
          << "query " << i;
      EXPECT_EQ(degraded[i].num_samples, baseline[i].num_samples)
          << "query " << i;
      ExpectSameTargets(degraded[i], baseline[i], i);
    } else if (expect_same_failed_set) {
      EXPECT_FALSE(baseline[i].ok()) << "query " << i << ": "
                                     << degraded[i].status;
    }
  }
}

struct PlanSpec {
  const char* name;
  /// Answers can only disappear (failures), never change: when false the
  /// plan's sites are semantically invisible and every query must succeed.
  bool can_fail_queries;
  FaultPlan plan;
};

std::vector<PlanSpec> ChaosPlans() {
  std::vector<PlanSpec> specs;
  {
    FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.probability[static_cast<size_t>(FaultSite::kEstimatorFailure)] = 0.25;
    specs.push_back({"estimator_failure", true, plan});
  }
  {
    FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.probability[static_cast<size_t>(FaultSite::kInducedLatency)] = 0.5;
    plan.latency_us = 200;
    specs.push_back({"induced_latency", false, plan});
  }
  {
    FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.probability[static_cast<size_t>(FaultSite::kAllocFailure)] = 0.7;
    specs.push_back({"alloc_failure", false, plan});
  }
  {
    FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.probability[static_cast<size_t>(FaultSite::kPoolReject)] = 0.7;
    specs.push_back({"pool_reject", false, plan});
  }
  {
    FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.probability[static_cast<size_t>(FaultSite::kEstimatorFailure)] = 0.2;
    plan.probability[static_cast<size_t>(FaultSite::kInducedLatency)] = 0.3;
    plan.probability[static_cast<size_t>(FaultSite::kAllocFailure)] = 0.5;
    plan.probability[static_cast<size_t>(FaultSite::kPoolReject)] = 0.5;
    plan.latency_us = 100;
    specs.push_back({"all_sites", true, plan});
  }
  return specs;
}

TEST(ChaosTest, EveryInjectionMixEveryThreadCount) {
  Watchdog watchdog(std::chrono::seconds(240));
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  const std::vector<EngineQuery> queries = ChaosBatch(graph, 64);

  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    // Fault-free baseline (thread count is irrelevant: the engine is
    // deterministic across thread counts by the PR 8 contract). Not every
    // query succeeds even fault-free — BFS Sharing has no
    // distance-constrained support — so comparisons are per-query, never
    // all-ok.
    const RunOutcome baseline =
        RunChaosBatch(graph, ChaosOptions(2, kind), queries);
    for (const EngineResult& result : baseline.results) {
      if (!result.ok()) {
        ASSERT_EQ(result.status.code(), StatusCode::kNotSupported)
            << result.status;
      }
    }
    ExpectPartitionHolds(*baseline.engine);

    for (const PlanSpec& spec : ChaosPlans()) {
      SCOPED_TRACE(spec.name);
      std::vector<std::vector<EngineResult>> per_thread_results;
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE(threads);
        ScopedFaultPlan armed(spec.plan);
        const RunOutcome chaos =
            RunChaosBatch(graph, ChaosOptions(threads, kind), queries);
        ExpectPartitionHolds(*chaos.engine);
        // Non-failing plans (latency, dropped inserts, pool rejections) are
        // semantically invisible: the failed set must equal the baseline's
        // (its NotSupported queries and nothing else). Failing plans may
        // only *add* failures — whatever succeeds must match bitwise.
        ExpectDegradedMatchesBaseline(chaos.results, baseline.results,
                                      !spec.can_fail_queries);
        if (!spec.can_fail_queries) {
          for (size_t i = 0; i < chaos.results.size(); ++i) {
            EXPECT_EQ(chaos.results[i].ok(), baseline.results[i].ok())
                << "query " << i << " under non-failing plan " << spec.name
                << ": " << chaos.results[i].status;
          }
        }
        per_thread_results.push_back(chaos.results);
      }
      // Content-derived injection keys: the failed *set* is identical at
      // every thread count (messages may differ — compare as booleans).
      for (size_t t = 1; t < per_thread_results.size(); ++t) {
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(per_thread_results[0][i].ok(),
                    per_thread_results[t][i].ok())
              << "query " << i << " diverged between thread counts";
        }
      }
    }
  }
}

TEST(ChaosTest, InjectedFailuresAreDeterministicAcrossRuns) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  const std::vector<EngineQuery> queries = ChaosBatch(graph, 48);
  FaultPlan plan;
  plan.seed = 42;
  plan.probability[static_cast<size_t>(FaultSite::kEstimatorFailure)] = 0.3;

  std::vector<EngineResult> first;
  {
    ScopedFaultPlan armed(plan);
    first = RunChaosBatch(graph, ChaosOptions(4, EstimatorKind::kMonteCarlo),
                          queries)
                .results;
  }
  ScopedFaultPlan armed(plan);
  const std::vector<EngineResult> second =
      RunChaosBatch(graph, ChaosOptions(4, EstimatorKind::kMonteCarlo),
                    queries)
          .results;
  size_t failures = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first[i].ok(), second[i].ok()) << "query " << i;
    if (!first[i].ok()) ++failures;
  }
  // p=0.3 over 48 queries: statistically certain to inject at least once —
  // a zero would mean the injector never engaged.
  EXPECT_GT(failures, 0u);
}

TEST(ChaosTest, DisabledInjectorIsBitIdenticalToNeverCompiledIn) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.9, 5);
  const std::vector<EngineQuery> queries = ChaosBatch(graph, 32);
  const RunOutcome a =
      RunChaosBatch(graph, ChaosOptions(4, EstimatorKind::kMonteCarlo),
                    queries);
  // Arm and disarm: a stale plan must leave zero residue.
  {
    FaultPlan plan;
    plan.seed = 7;
    plan.probability[static_cast<size_t>(FaultSite::kEstimatorFailure)] = 1.0;
    ScopedFaultPlan armed(plan);
  }
  const RunOutcome b =
      RunChaosBatch(graph, ChaosOptions(4, EstimatorKind::kMonteCarlo),
                    queries);
  ExpectDegradedMatchesBaseline(a.results, b.results,
                                /*expect_same_failed_set=*/true);
  EXPECT_EQ(FaultInjector::Global().total_injected(), 0u);
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation
// ---------------------------------------------------------------------------

TEST(ChaosTest, ExpiredDeadlineFailsWithoutPoisoningTheCache) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  auto engine = QueryEngine::Create(
                    graph, ChaosOptions(2, EstimatorKind::kMonteCarlo))
                    .MoveValue();

  // A deadline so tight it has always already expired when the worker picks
  // the query up (the clock starts at Submit).
  std::vector<EngineQuery> doomed = ChaosBatch(graph, 16);
  for (EngineQuery& query : doomed) query.deadline_ms = 1e-6;
  const std::vector<EngineResult> expired =
      engine->RunBatch(doomed).MoveValue();
  for (size_t i = 0; i < expired.size(); ++i) {
    EXPECT_FALSE(expired[i].ok()) << "query " << i;
    EXPECT_EQ(expired[i].status.code(), StatusCode::kDeadlineExceeded)
        << "query " << i << ": " << expired[i].status;
  }
  ExpectPartitionHolds(*engine);
  EXPECT_EQ(CounterValue(engine->metrics(), "engine_deadline_exceeded_total"),
            doomed.size());

  // kDeadlineExceeded is transient: it must never have entered the negative
  // cache, so the same queries without deadlines succeed — bit-identical to
  // a fresh engine that never saw a deadline.
  const std::vector<EngineQuery> clean = ChaosBatch(graph, 16);
  const std::vector<EngineResult> retried =
      engine->RunBatch(clean).MoveValue();
  const RunOutcome reference = RunChaosBatch(
      graph, ChaosOptions(2, EstimatorKind::kMonteCarlo), clean);
  ASSERT_EQ(retried.size(), reference.results.size());
  for (size_t i = 0; i < retried.size(); ++i) {
    ASSERT_TRUE(retried[i].ok()) << "query " << i << ": "
                                 << retried[i].status;
    EXPECT_EQ(std::memcmp(&retried[i].reliability,
                          &reference.results[i].reliability, sizeof(double)),
              0)
        << "query " << i;
    ExpectSameTargets(retried[i], reference.results[i], i);
  }
  ExpectPartitionHolds(*engine);
}

TEST(ChaosTest, GenerousDeadlineIsBitIdenticalToNoDeadline) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  const std::vector<EngineQuery> queries = ChaosBatch(graph, 48);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    const RunOutcome plain = RunChaosBatch(graph, ChaosOptions(4, kind),
                                           queries);
    EngineOptions with_deadline = ChaosOptions(4, kind);
    with_deadline.default_deadline_ms = 60'000.0;
    const RunOutcome guarded = RunChaosBatch(graph, with_deadline, queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      // A 60s deadline never fires on a millisecond query: outcomes (and
      // every bit of every answer) must match the deadline-free run —
      // including BFS Sharing's NotSupported distance failures.
      ASSERT_EQ(guarded.results[i].ok(), plain.results[i].ok())
          << "query " << i << ": " << guarded.results[i].status;
      if (!guarded.results[i].ok()) continue;
      EXPECT_EQ(std::memcmp(&guarded.results[i].reliability,
                            &plain.results[i].reliability, sizeof(double)),
                0)
          << "query " << i;
      ExpectSameTargets(guarded.results[i], plain.results[i], i);
    }
    ExpectPartitionHolds(*guarded.engine);
    obs::MetricsRegistry& guarded_metrics = guarded.engine->metrics();
    EXPECT_EQ(CounterValue(guarded_metrics, "engine_deadline_exceeded_total"),
              0u);
    // The unused deadline costs no work: both engines ran the estimator
    // exactly as often.
    EXPECT_EQ(CounterValue(guarded_metrics, "engine_executed_total"),
              CounterValue(plain.engine->metrics(), "engine_executed_total"));
  }
}

TEST(ChaosTest, PreCancelledTokenFailsEveryQueryImmediately) {
  Watchdog watchdog(std::chrono::seconds(60));
  const UncertainGraph graph = RandomSmallGraph(20, 60, 0.2, 0.9, 5);
  auto engine = QueryEngine::Create(
                    graph, ChaosOptions(2, EstimatorKind::kMonteCarlo))
                    .MoveValue();
  CancelToken token;
  token.Cancel();
  std::vector<EngineQuery> queries = ChaosBatch(graph, 8);
  for (EngineQuery& query : queries) query.cancel = &token;
  const std::vector<EngineResult> results =
      engine->RunBatch(queries).MoveValue();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled)
        << "query " << i << ": " << results[i].status;
  }
  ExpectPartitionHolds(*engine);
}

TEST(ChaosTest, CallerCancelMidStreamDrainsCleanly) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.1, 0.9, 23);
  EngineOptions options = ChaosOptions(2, EstimatorKind::kMonteCarlo);
  options.num_samples = 60'000;  // slow enough for the cancel to land mid-run
  options.enable_cache = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  CancelToken token;
  for (NodeId s = 0; s < 16; ++s) {
    EngineQuery query = EngineQuery::St(s, (s + 9) % 30);
    query.cancel = &token;
    ASSERT_TRUE(engine->Submit(query).ok());
  }
  token.Cancel();
  const std::vector<EngineResult> results = engine->Drain().MoveValue();
  ASSERT_EQ(results.size(), 16u);
  // Cooperative and all-or-nothing: every query either finished with a full
  // answer before the cancel landed, or reports kCancelled — never a torn
  // in-between.
  for (const EngineResult& result : results) {
    if (!result.ok()) {
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
          << result.status;
    }
  }
  ExpectPartitionHolds(*engine);
}

TEST(ChaosTest, EngineDestructionMidStreamNeverHangs) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.1, 0.9, 23);
  EngineOptions options = ChaosOptions(4, EstimatorKind::kMonteCarlo);
  options.num_samples = 20'000;
  options.enable_cache = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  for (NodeId s = 0; s < 24; ++s) {
    ASSERT_TRUE(engine->Submit(EngineQuery::St(s, (s + 9) % 30)).ok());
  }
  // No Drain: the destructor must retire every in-flight slot itself (the
  // stream results are engine-owned, so there is nothing to use-after-free).
  engine.reset();
}

// ---------------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------------

TEST(ChaosTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  Watchdog watchdog(std::chrono::seconds(120));
  const UncertainGraph graph = RandomSmallGraph(30, 90, 0.1, 0.9, 23);
  EngineOptions options = ChaosOptions(1, EstimatorKind::kMonteCarlo);
  options.num_samples = 40'000;  // slow queries: the queue builds up
  options.enable_load_shedding = true;
  options.shed_queue_depth = 2;
  options.enable_cache = false;
  options.enable_sweep_cache = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  size_t admitted = 0;
  size_t shed = 0;
  for (NodeId s = 0; s < 64; ++s) {
    const Status status = engine->Submit(EngineQuery::St(s % 30, (s + 9) % 30));
    if (status.ok()) {
      ++admitted;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status;
      // The hint tells the client when to retry.
      EXPECT_NE(status.message().find("retry after"), std::string::npos)
          << status;
      ++shed;
    }
  }
  const std::vector<EngineResult> results = engine->Drain().MoveValue();
  EXPECT_EQ(results.size(), admitted);
  EXPECT_GT(shed, 0u) << "a 1-thread engine fed 64 slow queries must shed";
  EXPECT_EQ(ShedTotal(engine->metrics()), shed);
  // Shed queries never entered the engine: the partition covers exactly the
  // admitted ones.
  EXPECT_EQ(QueriesRecorded(engine->metrics()), admitted);
  ExpectPartitionHolds(*engine);
  for (const EngineResult& result : results) {
    EXPECT_TRUE(result.ok()) << result.status;
  }
}

}  // namespace
}  // namespace relcomp
