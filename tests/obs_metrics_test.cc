#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "test_util.h"

namespace relcomp::obs {
namespace {

using ::relcomp::testing::CounterValue;
using ::relcomp::testing::QueriesRecorded;
using ::relcomp::testing::RandomSmallGraph;

/// The registry's outcome counters match the results' cache_hit /
/// coalesced / ok flags one for one, and partition the
/// engine_query_latency_ns count.
void ExpectOutcomeCountersMatch(MetricsRegistry& registry,
                                const std::vector<EngineResult>& results) {
  uint64_t flagged_executed = 0;
  uint64_t flagged_coalesced = 0;
  uint64_t flagged_failures = 0;
  uint64_t flagged_hits = 0;
  for (const EngineResult& r : results) {
    if (!r.ok()) {
      ++flagged_failures;
    } else if (r.cache_hit) {
      ++flagged_hits;
    } else if (r.coalesced) {
      ++flagged_coalesced;
    } else {
      ++flagged_executed;
    }
  }
  const uint64_t executed = CounterValue(registry, "engine_executed_total");
  const uint64_t coalesced = CounterValue(registry, "engine_coalesced_total");
  const uint64_t failures = CounterValue(registry, "engine_failures_total");
  const uint64_t cache_hits =
      CounterValue(registry, "result_cache_hits_total");
  EXPECT_EQ(executed, flagged_executed);
  EXPECT_EQ(coalesced, flagged_coalesced);
  EXPECT_EQ(failures, flagged_failures);
  EXPECT_EQ(cache_hits, flagged_hits);
  EXPECT_EQ(executed + coalesced + failures + cache_hits,
            QueriesRecorded(registry));
  EXPECT_EQ(QueriesRecorded(registry), results.size());
}

TEST(CounterTest, StartsAtZeroAndCounts) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (uint64_t j = 0; j < kPerThread; ++j) counter.Inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  EXPECT_EQ(gauge.Value(), 3.5);
  gauge.Add(-1.5);
  EXPECT_EQ(gauge.Value(), 2.0);
  gauge.SetMax(1.0);  // below current: no change
  EXPECT_EQ(gauge.Value(), 2.0);
  gauge.SetMax(7.0);
  EXPECT_EQ(gauge.Value(), 7.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(RegistryTest, SameNameSamePointerDifferentLabelDifferentInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "workload", "st");
  Counter* b = registry.GetCounter("requests_total", "workload", "st");
  Counter* c = registry.GetCounter("requests_total", "workload", "topk");
  Counter* unlabeled = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, unlabeled);
  a->Inc(5);
  c->Inc(3);
  // Family members are fully isolated.
  EXPECT_EQ(registry.GetCounter("requests_total", "workload", "st")->Value(),
            5u);
  EXPECT_EQ(registry.GetCounter("requests_total", "workload", "topk")->Value(),
            3u);
  EXPECT_EQ(registry.GetCounter("requests_total")->Value(), 0u);
  // The three instrument namespaces are independent too.
  Gauge* gauge = registry.GetGauge("requests_total");
  gauge->Set(9.0);
  EXPECT_EQ(registry.GetCounter("requests_total")->Value(), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram histogram;
  for (uint64_t v = 0; v < 16; ++v) histogram.Record(v);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 16u);
  EXPECT_EQ(snapshot.min, 0u);
  EXPECT_EQ(snapshot.max, 15u);
  EXPECT_EQ(snapshot.sum, 120u);
  // Values below 16 land in their own exact bucket, so every quantile of
  // this distribution is exact.
  EXPECT_EQ(snapshot.Quantile(0.5), 7u);  // nearest-rank: the 8th smallest
  EXPECT_EQ(snapshot.Quantile(1.0), 15u);
}

TEST(HistogramTest, BucketIndexRoundTrips) {
  // Every probe value must fall inside the [lower, lower + width) range of
  // the bucket it maps to, and bucket indexes must be monotone in the value.
  uint32_t last_index = 0;
  for (uint64_t exponent = 0; exponent < 63; ++exponent) {
    for (uint64_t offset : {uint64_t{0}, uint64_t{1}}) {
      const uint64_t value = (uint64_t{1} << exponent) + offset;
      const uint32_t index = Histogram::BucketIndex(value);
      ASSERT_LT(index, Histogram::kBuckets);
      const uint64_t lower = Histogram::BucketLowerBound(index);
      const uint64_t width = Histogram::BucketWidth(index);
      EXPECT_GE(value, lower) << "value " << value;
      EXPECT_LT(value - lower, width) << "value " << value;
      EXPECT_GE(index, last_index);
      last_index = index;
    }
  }
}

TEST(HistogramTest, QuantilesTrackExactSortWithinBucketError) {
  // Oracle check: quantiles from the log buckets stay within the documented
  // relative error (bucket half-width <= 1/16) of the exact sorted-sample
  // quantiles, over a long-tailed latency-like distribution.
  Histogram histogram;
  std::vector<uint64_t> values;
  std::mt19937_64 rng(20190607);
  std::lognormal_distribution<double> latency(10.0, 1.5);  // ~22us median
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = static_cast<uint64_t>(latency(rng));
    values.push_back(v);
    histogram.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.count, values.size());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const uint64_t exact = values[rank == 0 ? 0 : rank - 1];
    const uint64_t approx = snapshot.Quantile(q);
    const double relative_error =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(relative_error, 1.0 / 16.0 + 1e-9)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  // Order can never invert, and the extremes are exact.
  EXPECT_LE(snapshot.Quantile(0.50), snapshot.Quantile(0.99));
  EXPECT_EQ(snapshot.Quantile(1.0), values.back());
  EXPECT_EQ(snapshot.min, values.front());
  EXPECT_EQ(snapshot.max, values.back());
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&histogram, i] {
      for (uint64_t j = 0; j < kPerThread; ++j) {
        histogram.Record(static_cast<uint64_t>(i) * kPerThread + j);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  EXPECT_EQ(snapshot.min, 0u);
  EXPECT_EQ(snapshot.max, kThreads * kPerThread - 1);
  uint64_t bucket_total = 0;
  for (uint64_t bucket : snapshot.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, snapshot.count);
}

TEST(HistogramTest, ResetClears) {
  Histogram histogram;
  histogram.Record(100);
  histogram.Reset();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.Quantile(0.5), 0u);
}

TEST(ExportTest, JsonCarriesEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("widgets_total")->Inc(7);
  registry.GetCounter("engine_queries_total", "workload", "st")->Inc(2);
  registry.GetGauge("temperature")->Set(21.5);
  registry.GetHistogram("latency_ns")->Record(1000);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"widgets_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"engine_queries_total\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"st\""), std::string::npos);
  EXPECT_NE(json.find("\"temperature\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ExportTest, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("widgets_total", "kind", "small")->Inc(3);
  registry.GetCounter("widgets_total", "kind", "large")->Inc(4);
  registry.GetHistogram("latency_ns")->Record(5);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("# TYPE widgets_total counter"), std::string::npos);
  EXPECT_NE(text.find("widgets_total{kind=\"small\"} 3"), std::string::npos);
  EXPECT_NE(text.find("widgets_total{kind=\"large\"} 4"), std::string::npos);
  // One TYPE line per family, not per member.
  EXPECT_EQ(text.find("# TYPE widgets_total counter"),
            text.rfind("# TYPE widgets_total counter"));
  EXPECT_NE(text.find("# TYPE latency_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_sum 5"), std::string::npos);
}

TEST(EngineScrapeTest, OneScrapeReportsEveryEngineCounter) {
  // The single-scrape acceptance contract: the engine's registry carries
  // every outcome, workload and sweep counter, agreeing with the answers
  // the batch returned, plus the per-stage latency family — all reachable
  // from one metrics() handle.
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.2, 0.9, 7);
  EngineOptions options;
  options.num_threads = 4;
  options.num_samples = 200;
  options.num_strata = 4;
  options.seed = 99;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  std::vector<EngineQuery> queries;
  for (NodeId t = 1; t < 10; ++t) queries.push_back(EngineQuery::St(0, t));
  queries.push_back(EngineQuery::TopK(0, 3));
  queries.push_back(EngineQuery::TopK(0, 5));
  queries.push_back(EngineQuery::TopK(2, 4));
  queries.push_back(EngineQuery::St(0, 1));  // repeat: a cache hit
  auto results = engine->RunBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status().message();

  MetricsRegistry& registry = engine->metrics();
  ExpectOutcomeCountersMatch(registry, *results);
  EXPECT_EQ(CounterValue(registry, "engine_queries_total", "workload", "st"),
            10u);
  EXPECT_EQ(
      CounterValue(registry, "engine_queries_total", "workload", "top-k"), 3u);
  // Every query probed the result cache exactly once.
  EXPECT_EQ(CounterValue(registry, "result_cache_hits_total") +
                CounterValue(registry, "result_cache_misses_total"),
            queries.size());
  // Sweep partition: every top-k that reached the compute path resolved
  // through exactly one sweep outcome; the one sweep of each source ran its
  // 4 strata, and so did every computed s-t estimate.
  uint64_t compute_path_sweeps = 0;
  uint64_t computed_st = 0;
  for (const EngineResult& r : *results) {
    if (r.cache_hit || r.coalesced) continue;
    if (IsSweepWorkload(r.query.workload)) ++compute_path_sweeps;
    if (r.query.workload == WorkloadKind::kSt) ++computed_st;
  }
  const uint64_t sweep_executed =
      CounterValue(registry, "engine_sweep_executed_total");
  EXPECT_EQ(CounterValue(registry, "engine_sweep_hits_total") +
                CounterValue(registry, "engine_sweep_coalesced_total") +
                sweep_executed,
            compute_path_sweeps);
  EXPECT_EQ(CounterValue(registry, "engine_strata_executed_total"),
            4 * (sweep_executed + computed_st));
  // Coalesced waiters' strata and helpers' strata are disjoint subsets.
  EXPECT_LE(CounterValue(registry, "engine_strata_stolen_total") +
                CounterValue(registry, "engine_strata_helped_total"),
            CounterValue(registry, "engine_strata_executed_total"));
  // Every query rode the pool exactly once, and the executed ones went
  // through cache probe + stratum + publish.
  EXPECT_EQ(registry.GetHistogram("engine_stage_latency_ns", "stage",
                                  "queue_wait")
                ->Snapshot()
                .count,
            QueriesRecorded(registry));
  EXPECT_GT(registry.GetHistogram("engine_stage_latency_ns", "stage",
                                  "cache_probe")
                ->Snapshot()
                .count,
            0u);
  EXPECT_GT(registry.GetHistogram("engine_stage_latency_ns", "stage",
                                  "stratum")
                ->Snapshot()
                .count,
            0u);
  EXPECT_GT(
      registry.GetHistogram("engine_stage_latency_ns", "stage", "publish")
          ->Snapshot()
          .count,
      0u);
  // And the whole thing is scrapeable as one JSON document.
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("engine_stage_latency_ns"), std::string::npos);
  EXPECT_NE(json.find("result_cache_hits_total"), std::string::npos);
  EXPECT_NE(json.find("sweep_cache_bytes"), std::string::npos);
}

TEST(EngineScrapeTest, EstimateStageTimesEveryComputedStAndDistanceQuery) {
  // Every computed s-t or distance query records one `estimate` stage
  // sample, around its estimator call. The queries are distinct, so none is
  // a cache hit or coalesced, and the stage's count equals
  // engine_executed_total.
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.2, 0.9, 11);
  EngineOptions options;
  options.num_threads = 4;
  options.num_samples = 200;
  options.seed = 17;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  std::vector<EngineQuery> queries;
  for (NodeId t = 1; t < 12; ++t) {
    queries.push_back(EngineQuery::St(0, t));
    queries.push_back(EngineQuery::Distance(t, 0, 3));
  }
  auto results = engine->RunBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status().message();
  for (const EngineResult& r : *results) ASSERT_TRUE(r.ok()) << r.status;

  MetricsRegistry& registry = engine->metrics();
  const uint64_t executed = CounterValue(registry, "engine_executed_total");
  EXPECT_EQ(executed, queries.size());
  EXPECT_EQ(registry.GetHistogram("engine_stage_latency_ns", "stage",
                                  "estimate")
                ->Snapshot()
                .count,
            executed);
}

TEST(EngineScrapeTest, OutcomeCountersPartitionTheQueries) {
  // executed + coalesced + failures + cache hits == queries, each counter
  // equal to the results flagged that way; a repeat resolves as a cache hit
  // or, when it races its twin, as a coalesced share.
  const UncertainGraph graph = RandomSmallGraph(16, 40, 0.3, 0.9, 3);
  EngineOptions options;
  options.num_threads = 4;
  options.num_samples = 150;
  options.seed = 5;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  std::vector<EngineQuery> queries;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s != t) queries.push_back(EngineQuery::St(s, t));
    }
  }
  queries.insert(queries.end(), queries.begin(), queries.begin() + 10);
  auto results = engine->RunBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status().message();
  ExpectOutcomeCountersMatch(engine->metrics(), *results);
}

TEST(EngineScrapeTest, FreshEngineExportsEveryCacheInstrument) {
  // Scrapers (relbench among them) read the cache instruments by name; its
  // query-partition check sums result_cache_hits_total. A renamed or
  // unregistered instrument must fail here rather than silently there.
  const UncertainGraph graph = RandomSmallGraph(8, 16, 0.3, 0.9, 1);
  auto engine = QueryEngine::Create(graph, EngineOptions{}).MoveValue();
  const std::string json = engine->metrics().ExportJson();
  for (const char* name :
       {"result_cache_hits_total", "result_cache_misses_total",
        "result_cache_insertions_total", "result_cache_evictions_total",
        "result_cache_rejected_total", "result_cache_bytes",
        "sweep_cache_hits_total", "sweep_cache_misses_total",
        "sweep_cache_insertions_total", "sweep_cache_evictions_total",
        "sweep_cache_rejected_total", "sweep_cache_bytes",
        "sweep_cache_entries"}) {
    EXPECT_NE(json.find("{\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace relcomp::obs
