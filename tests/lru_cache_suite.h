#pragma once

// The behaviours both instantiations of the engine's one LRU cache
// (engine/lru_cache.h) share, as a type-parameterized suite. A test file
// instantiates it with a "side": a struct naming the cache type and how to
// build a key and a value of `units` payload units, and how to read a
// value's fill and unit count back:
//
//   struct Side {
//     using Cache = ...;
//     static Key Key(uint32_t i);
//     static Value Value(size_t units, double fill = 0.5);
//     static double Fill(const Value&);
//     static size_t Units(const Value&);
//   };
//   INSTANTIATE_TYPED_TEST_SUITE_P(Name, LruCacheTest, Side);

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/lru_cache.h"

namespace relcomp::testing {

/// One shard, no entry limit: only the byte budget evicts.
template <typename Side>
std::unique_ptr<typename Side::Cache> ByteBudgetCache(size_t max_bytes) {
  return std::make_unique<typename Side::Cache>(
      Side::Cache::kNoEntryLimit, /*num_shards=*/1, max_bytes);
}

template <typename Side>
class LruCacheTest : public ::testing::Test {};
TYPED_TEST_SUITE_P(LruCacheTest);

TYPED_TEST_P(LruCacheTest, MissThenHit) {
  typename TypeParam::Cache cache(8, 1);
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  cache.Insert(TypeParam::Key(1), TypeParam::Value(64, 0.5));
  const auto hit = cache.Lookup(TypeParam::Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(TypeParam::Fill(*hit), 0.5);
  EXPECT_EQ(TypeParam::Units(*hit), 64u);
  EXPECT_EQ(cache.bytes_in_use(),
            TypeParam::Cache::Charge(TypeParam::Value(64)));

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TYPED_TEST_P(LruCacheTest, EvictsLeastRecentlyUsed) {
  typename TypeParam::Cache cache(2, 1);  // one shard: the LRU order is global
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.1));
  cache.Insert(TypeParam::Key(2), TypeParam::Value(10, 0.2));
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());  // refresh 1
  cache.Insert(TypeParam::Key(3), TypeParam::Value(10, 0.3));  // evicts 2
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(2)).has_value());
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(3)).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TYPED_TEST_P(LruCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  // Budget of 3 entries of 10 units each.
  auto cache = ByteBudgetCache<TypeParam>(
      3 * TypeParam::Cache::Charge(TypeParam::Value(10)));
  cache->Insert(TypeParam::Key(1), TypeParam::Value(10, 0.1));
  cache->Insert(TypeParam::Key(2), TypeParam::Value(10, 0.2));
  cache->Insert(TypeParam::Key(3), TypeParam::Value(10, 0.3));
  EXPECT_EQ(cache->size(), 3u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(1)).has_value());
  cache->Insert(TypeParam::Key(4), TypeParam::Value(10, 0.4));
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_FALSE(cache->Lookup(TypeParam::Key(2)).has_value());  // evicted
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(1)).has_value());
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(3)).has_value());
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(4)).has_value());
  EXPECT_EQ(cache->Stats().evictions, 1u);
  EXPECT_LE(cache->bytes_in_use(), cache->max_bytes());
}

TYPED_TEST_P(LruCacheTest, EvictsByBytesNotEntryCount) {
  // Entry capacity is huge; the byte budget holds 3 of the 50-unit
  // payloads. Eviction must kick in on bytes alone.
  const size_t entry_bytes = TypeParam::Cache::Charge(TypeParam::Value(50));
  typename TypeParam::Cache cache(1024, 1, 3 * entry_bytes);
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(TypeParam::Key(i), TypeParam::Value(50));
  }
  EXPECT_LE(cache.bytes_in_use(), cache.max_bytes());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Stats().evictions, 3u);
  // Most-recent survive, oldest were evicted.
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(5)).has_value());
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(0)).has_value());
}

TYPED_TEST_P(LruCacheTest, BigEntryEvictsManySmallOnes) {
  auto cache = ByteBudgetCache<TypeParam>(
      TypeParam::Cache::Charge(TypeParam::Value(100)));
  cache->Insert(TypeParam::Key(1), TypeParam::Value(40, 0.1));
  cache->Insert(TypeParam::Key(2), TypeParam::Value(40, 0.2));
  // 90 units only fit alongside neither of the 40s.
  cache->Insert(TypeParam::Key(3), TypeParam::Value(90, 0.3));
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(3)).has_value());
  EXPECT_EQ(cache->Stats().evictions, 2u);
  EXPECT_LE(cache->bytes_in_use(), cache->max_bytes());
}

TYPED_TEST_P(LruCacheTest, UnlimitedBytesKeepsEntryCountSemantics) {
  typename TypeParam::Cache cache(4, 1);  // max_bytes = 0: entry-count LRU
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(TypeParam::Key(i), TypeParam::Value(50));
  }
  EXPECT_EQ(cache.size(), 4u);
}

TYPED_TEST_P(LruCacheTest, RejectsEntryLargerThanWholeBudget) {
  // For sweeps this is an 80-byte budget refusing an 88-byte sweep: no
  // per-shard byte floor may lift the budget past it.
  auto cache = ByteBudgetCache<TypeParam>(
      TypeParam::Cache::Charge(TypeParam::Value(10)));
  cache->Insert(TypeParam::Key(1), TypeParam::Value(5, 0.1));
  cache->Insert(TypeParam::Key(2), TypeParam::Value(11, 0.2));  // too big
  EXPECT_FALSE(cache->Lookup(TypeParam::Key(2)).has_value());
  EXPECT_TRUE(cache->Lookup(TypeParam::Key(1)).has_value());  // untouched
  EXPECT_EQ(cache->Stats().rejected, 1u);
  EXPECT_EQ(cache->Stats().evictions, 0u);
}

TYPED_TEST_P(LruCacheTest, RejectedReinsertDropsTheOlderCopy) {
  const size_t small_bytes = TypeParam::Cache::Charge(TypeParam::Value(2));
  typename TypeParam::Cache cache(1024, 1, 2 * small_bytes);
  cache.Insert(TypeParam::Key(0), TypeParam::Value(2));
  cache.Insert(TypeParam::Key(1), TypeParam::Value(2));
  cache.Insert(TypeParam::Key(1), TypeParam::Value(500));  // outweighs all
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(0)).has_value());
  EXPECT_EQ(cache.Stats().rejected, 1u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.bytes_in_use(), small_bytes);
}

TYPED_TEST_P(LruCacheTest, ReinsertReplacesAndReaccountsBytes) {
  typename TypeParam::Cache cache(2, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.1));
  cache.Insert(TypeParam::Key(1), TypeParam::Value(30, 0.9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_in_use(),
            TypeParam::Cache::Charge(TypeParam::Value(30)));
  EXPECT_EQ(cache.Stats().insertions, 1u);  // refresh, not a new entry
  const auto hit = cache.Lookup(TypeParam::Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(TypeParam::Fill(*hit), 0.9);
  EXPECT_EQ(TypeParam::Units(*hit), 30u);
}

TYPED_TEST_P(LruCacheTest, ShardCountRoundsUpAndCapsAtCapacity) {
  using Cache = typename TypeParam::Cache;
  EXPECT_EQ(Cache(100, 3).num_shards(), 4u);
  EXPECT_EQ(Cache(2, 8).num_shards(), 2u);  // shards <= capacity
  EXPECT_EQ(Cache(0, 0).num_shards(), 1u);  // degenerate clamps
  EXPECT_EQ(Cache(0, 0).capacity(), 1u);
}

TYPED_TEST_P(LruCacheTest, CapacityHoldsAcrossShards) {
  typename TypeParam::Cache cache(64, 8);
  for (uint32_t i = 0; i < 1000; ++i) {
    cache.Insert(TypeParam::Key(i), TypeParam::Value(4));
  }
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GE(cache.Stats().evictions, 1000u - 64u);
}

TYPED_TEST_P(LruCacheTest, ConcurrentMixedWorkloadIsSafe) {
  typename TypeParam::Cache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint32_t i = 0; i < 2000; ++i) {
        const uint32_t s = (i + static_cast<uint32_t>(t)) % 97;
        const double fill = static_cast<double>(s) / 97.0;
        cache.Insert(TypeParam::Key(s), TypeParam::Value(4, fill));
        const auto hit = cache.Lookup(TypeParam::Key(s));
        if (hit.has_value()) {
          EXPECT_DOUBLE_EQ(TypeParam::Fill(*hit), fill);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 256u);
  EXPECT_EQ(cache.Stats().lookups(), 8u * 2000u);
}

REGISTER_TYPED_TEST_SUITE_P(
    LruCacheTest,
    MissThenHit,
    EvictsLeastRecentlyUsed,
    EvictsLeastRecentlyUsedUnderBytePressure,
    EvictsByBytesNotEntryCount,
    BigEntryEvictsManySmallOnes,
    UnlimitedBytesKeepsEntryCountSemantics,
    RejectsEntryLargerThanWholeBudget,
    RejectedReinsertDropsTheOlderCopy,
    ReinsertReplacesAndReaccountsBytes,
    ShardCountRoundsUpAndCapsAtCapacity,
    CapacityHoldsAcrossShards,
    ConcurrentMixedWorkloadIsSafe);

}  // namespace relcomp::testing
