// Unit coverage for the result cache, the ResultCache instantiation of the
// engine's one LRU cache (engine/lru_cache.h): the behaviours it shares with
// the sweep memo run as the LruCacheTest suite (lru_cache_suite.h); the
// result-only cases (keys, workload tags, failure refusal, ranked-payload
// charge) and the saturating seconds -> deadline conversion behind query
// deadlines are plain tests.

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "engine/lru_cache.h"
#include "lru_cache_suite.h"

namespace relcomp {
namespace {

/// The result cache under test: a value of `units` payload units carries
/// that many ranked targets (its charge grows with them like a sweep's).
struct ResultSide {
  using Cache = ResultCache;
  static ResultCacheKey Key(uint32_t i) {
    return ResultCacheKey{EngineQuery::TopK(i, 5), EstimatorKind::kMonteCarlo,
                          100, 7};
  }
  static ResultCacheValue Value(size_t units, double fill = 0.5) {
    ResultCacheValue value(fill, 100);
    value.targets.resize(units);
    for (size_t i = 0; i < units; ++i) {
      value.targets[i] = ReliableTarget{static_cast<NodeId>(i), fill};
    }
    return value;
  }
  static double Fill(const ResultCacheValue& value) {
    return value.reliability;
  }
  static size_t Units(const ResultCacheValue& value) {
    return value.targets.size();
  }
};

}  // namespace

namespace testing {
INSTANTIATE_TYPED_TEST_SUITE_P(Result, LruCacheTest, ResultSide);
}  // namespace testing

namespace {

// ---------------------------------------------------------------------------
// Keys, failure refusal, ranked charge
// ---------------------------------------------------------------------------

ResultCacheKey StKey(NodeId s, NodeId t, uint64_t seed = 7, uint32_t k = 1000,
                     EstimatorKind kind = EstimatorKind::kMonteCarlo) {
  return ResultCacheKey{EngineQuery::St(s, t), kind, k, seed};
}

TEST(ResultCacheTest, KeyDistinguishesEveryField) {
  ResultCache cache(16, 1);
  cache.Insert(StKey(0, 1), {0.5, 1000});
  EXPECT_FALSE(cache.Lookup(StKey(1, 0)).has_value());          // swapped
  EXPECT_FALSE(cache.Lookup(StKey(0, 1, 8)).has_value());       // other seed
  EXPECT_FALSE(cache.Lookup(StKey(0, 1, 7, 500)).has_value());  // other K
  EXPECT_FALSE(cache.Lookup(StKey(0, 1, 7, 1000, EstimatorKind::kRecursive))
                   .has_value());
  EXPECT_TRUE(cache.Lookup(StKey(0, 1)).has_value());
}

TEST(ResultCacheTest, WorkloadTagIsolatesKeys) {
  // Four workload kinds over the same nodes/parameters: four distinct keys.
  ResultCache cache(16, 1);
  const ResultCacheKey st{EngineQuery::St(0, 5),
                          EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey topk{EngineQuery::TopK(0, 5),
                            EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey set{EngineQuery::ReliableSet(0, 0.5),
                           EstimatorKind::kMonteCarlo, 1000, 7};
  const ResultCacheKey dist{EngineQuery::Distance(0, 5, 5),
                            EstimatorKind::kMonteCarlo, 1000, 7};
  cache.Insert(st, {0.1, 10});
  EXPECT_FALSE(cache.Lookup(topk).has_value());
  EXPECT_FALSE(cache.Lookup(set).has_value());
  EXPECT_FALSE(cache.Lookup(dist).has_value());
  cache.Insert(topk, {0.2, 10});
  cache.Insert(set, {0.3, 10});
  cache.Insert(dist, {0.4, 10});
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_DOUBLE_EQ(cache.Lookup(st)->reliability, 0.1);
  EXPECT_DOUBLE_EQ(cache.Lookup(dist)->reliability, 0.4);
}

TEST(ResultCacheTest, CachesRankedTargetPayloads) {
  ResultCache cache(8, 1);
  ResultCacheValue value;
  value.num_samples = 500;
  value.targets = {{3, 0.9}, {7, 0.4}};
  const ResultCacheKey key{EngineQuery::TopK(0, 2),
                           EstimatorKind::kMonteCarlo, 500, 7};
  cache.Insert(key, value);
  const auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->targets.size(), 2u);
  EXPECT_EQ(hit->targets[0].node, 3u);
  EXPECT_DOUBLE_EQ(hit->targets[0].reliability, 0.9);
  EXPECT_EQ(hit->targets[1].node, 7u);
}

TEST(ResultCacheTest, RankedPayloadChargedRealBytes) {
  const ResultCacheValue scalar(0.5, 100);
  const ResultCacheValue ranked = ResultSide::Value(50);
  EXPECT_EQ(ResultCache::Charge(ranked) - ResultCache::Charge(scalar),
            50 * sizeof(ReliableTarget));

  ResultCache cache(1024, 1, /*max_bytes=*/1 << 20);
  cache.Insert(ResultSide::Key(0), ranked);
  EXPECT_EQ(cache.bytes_in_use(), ResultCache::Charge(ranked));
}

TEST(ResultCacheTest, FailuresAreNeverCached) {
  // Only answers are cached: a failure, transient or not, is refused, so the
  // next miss of its key recomputes. A refused failure also leaves an
  // earlier answer for the key in place.
  ResultCache cache(8, 1);
  cache.Insert(StKey(0, 2), {0.5, 1000});
  for (int code = static_cast<int>(StatusCode::kInvalidArgument);
       code <= static_cast<int>(StatusCode::kCancelled); ++code) {
    ResultCacheValue failure;
    failure.status = Status(static_cast<StatusCode>(code), "failed");
    cache.Insert(StKey(0, 1), failure);
    EXPECT_FALSE(cache.Lookup(StKey(0, 1)).has_value())
        << StatusCodeName(failure.status.code());
    cache.Insert(StKey(0, 2), failure);
    const auto kept = cache.Lookup(StKey(0, 2));
    ASSERT_TRUE(kept.has_value()) << StatusCodeName(failure.status.code());
    EXPECT_TRUE(kept->status.ok());
    EXPECT_DOUBLE_EQ(kept->reliability, 0.5);
  }
  EXPECT_EQ(cache.Stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, TinyShardBudgetHoldsOneSmallestEntry) {
  // The per-shard byte floor is one scalar entry's charge, so a budget too
  // small for any entry degrades instead of refusing everything.
  ResultCache cache(8, 1, /*max_bytes=*/1);
  cache.Insert(StKey(0, 1), {0.5, 10});
  EXPECT_TRUE(cache.Lookup(StKey(0, 1)).has_value());
  EXPECT_EQ(cache.Stats().rejected, 0u);
}

// ---------------------------------------------------------------------------
// The saturating seconds -> deadline conversion behind query deadlines
// ---------------------------------------------------------------------------

TEST(DeadlineAfterTest, FiniteSecondsAddNanoseconds) {
  EXPECT_EQ(DeadlineAfter(100, 1.0), 100u + 1000000000u);
  EXPECT_EQ(DeadlineAfter(100, 0.25), 100u + 250000000u);
  EXPECT_EQ(DeadlineAfter(100, 1e9), 100u + 1000000000000000000u);
}

TEST(DeadlineAfterTest, NonPositiveAndOutOfRangeMeanNever) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(DeadlineAfter(100, 0.0), 0u);
  EXPECT_EQ(DeadlineAfter(100, -1.0), 0u);
  EXPECT_EQ(DeadlineAfter(100, std::nan("")), 0u);
  EXPECT_EQ(DeadlineAfter(100, kInf), 0u);
  EXPECT_EQ(DeadlineAfter(100, 1e12), 0u);   // 1e21 ns > 2^64
  EXPECT_EQ(DeadlineAfter(100, 1e300), 0u);
  // In range as a duration (2^-20 s is exactly 953.67 ns), but past the
  // clock's range from this start.
  EXPECT_EQ(DeadlineAfter(~uint64_t{0} - 953, 0x1p-20), 0u);
  EXPECT_EQ(DeadlineAfter(~uint64_t{0} - 954, 0x1p-20), ~uint64_t{0} - 1);
}

}  // namespace
}  // namespace relcomp
