#pragma once

// The behaviours both instantiations of the engine's one LRU/TTL cache
// (engine/ttl_cache.h) share, as a type-parameterized suite. A test file
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
//   INSTANTIATE_TYPED_TEST_SUITE_P(Name, TtlCacheTest, Side);

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ttl_cache.h"

namespace relcomp::testing {

// Long enough that a test never crosses it, short enough to be a real TTL.
inline constexpr double kLongTtl = 3600.0;
// Already in the past by the time any later call reads the clock.
inline constexpr double kExpiredTtl = 1e-9;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One shard, no entry limit: only the byte budget evicts.
template <typename Side>
std::unique_ptr<typename Side::Cache> ByteBudgetCache(size_t max_bytes) {
  return std::make_unique<typename Side::Cache>(
      Side::Cache::kNoEntryLimit, /*num_shards=*/1, max_bytes);
}

template <typename Side>
class TtlCacheTest : public ::testing::Test {};
TYPED_TEST_SUITE_P(TtlCacheTest);

TYPED_TEST_P(TtlCacheTest, MissThenHit) {
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

TYPED_TEST_P(TtlCacheTest, EvictsLeastRecentlyUsed) {
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

TYPED_TEST_P(TtlCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
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

TYPED_TEST_P(TtlCacheTest, EvictsByBytesNotEntryCount) {
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

TYPED_TEST_P(TtlCacheTest, BigEntryEvictsManySmallOnes) {
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

TYPED_TEST_P(TtlCacheTest, UnlimitedBytesKeepsEntryCountSemantics) {
  typename TypeParam::Cache cache(4, 1);  // max_bytes = 0: entry-count LRU
  for (uint32_t i = 0; i < 6; ++i) {
    cache.Insert(TypeParam::Key(i), TypeParam::Value(50));
  }
  EXPECT_EQ(cache.size(), 4u);
}

TYPED_TEST_P(TtlCacheTest, RejectsEntryLargerThanWholeBudget) {
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

TYPED_TEST_P(TtlCacheTest, RejectedReinsertDropsTheOlderCopy) {
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

TYPED_TEST_P(TtlCacheTest, ReinsertReplacesAndReaccountsBytes) {
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

TYPED_TEST_P(TtlCacheTest, ClearDropsEntriesKeepsStats) {
  typename TypeParam::Cache cache(8, 2);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.1));
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_in_use(), 0u);
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_EQ(cache.Stats().hits, 1u);  // counters survive Clear
}

TYPED_TEST_P(TtlCacheTest, ShardCountRoundsUpAndCapsAtCapacity) {
  using Cache = typename TypeParam::Cache;
  EXPECT_EQ(Cache(100, 3).num_shards(), 4u);
  EXPECT_EQ(Cache(2, 8).num_shards(), 2u);  // shards <= capacity
  EXPECT_EQ(Cache(0, 0).num_shards(), 1u);  // degenerate clamps
  EXPECT_EQ(Cache(0, 0).capacity(), 1u);
}

TYPED_TEST_P(TtlCacheTest, CapacityHoldsAcrossShards) {
  typename TypeParam::Cache cache(64, 8);
  for (uint32_t i = 0; i < 1000; ++i) {
    cache.Insert(TypeParam::Key(i), TypeParam::Value(4));
  }
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GE(cache.Stats().evictions, 1000u - 64u);
}

TYPED_TEST_P(TtlCacheTest, EntriesExpireAfterTtl) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.5), kExpiredTtl);
  cache.Insert(TypeParam::Key(2), TypeParam::Value(10, 0.7));  // immortal
  // The tiny TTL has certainly elapsed by now: the entry is dropped on the
  // lookup that discovers it and the lookup is a miss.
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(2)).has_value());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A long TTL keeps the entry alive.
  cache.Insert(TypeParam::Key(3), TypeParam::Value(10, 0.9), kLongTtl);
  EXPECT_TRUE(cache.Lookup(TypeParam::Key(3)).has_value());
  // Reinsert refreshes the deadline (and can remove it).
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.5), kLongTtl);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.6));
  EXPECT_DOUBLE_EQ(TypeParam::Fill(*cache.Lookup(TypeParam::Key(1))), 0.6);
}

TYPED_TEST_P(TtlCacheTest, LiveEntryServesUntilItsTtl) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16), kLongTtl);
  EXPECT_TRUE(cache.Contains(TypeParam::Key(1)));
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_EQ(cache.Stats().expired, 0u);
}

TYPED_TEST_P(TtlCacheTest, ExpiredEntryIsAbsentAndReapedOnLookup) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16), kExpiredTtl);
  // Contains is a pure probe: reports absent, reaps nothing.
  EXPECT_FALSE(cache.Contains(TypeParam::Key(1)));
  EXPECT_EQ(cache.size(), 1u);
  // Lookup reaps: miss, expired counter, bytes released.
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_in_use(), 0u);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // A reaped entry never counts as an eviction (that's budget pressure).
  EXPECT_EQ(stats.evictions, 0u);
}

TYPED_TEST_P(TtlCacheTest, TtlEntryStillExpiresAfterAHit) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16), /*ttl_seconds=*/0.2);
  // A hit while the entry is live does not extend or remove its deadline.
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(cache.Contains(TypeParam::Key(1)));
  EXPECT_FALSE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_EQ(cache.Stats().expired, 1u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TYPED_TEST_P(TtlCacheTest, ReinsertAppliesNewTtl) {
  typename TypeParam::Cache cache(8, 1);
  // Immortal entry turned into an expired one by a re-insert.
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16));
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16), kExpiredTtl);
  EXPECT_FALSE(cache.Contains(TypeParam::Key(1)));
  // Expired entry made immortal by a TTL-less re-insert.
  cache.Insert(TypeParam::Key(2), TypeParam::Value(16), kExpiredTtl);
  cache.Insert(TypeParam::Key(2), TypeParam::Value(16));
  EXPECT_TRUE(cache.Contains(TypeParam::Key(2)));
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(2)).has_value());
}

TYPED_TEST_P(TtlCacheTest, ImmortalDefaultNeverExpires) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16));  // ttl_seconds = 0
  EXPECT_TRUE(cache.Contains(TypeParam::Key(1)));
  ASSERT_TRUE(cache.Lookup(TypeParam::Key(1)).has_value());
  EXPECT_EQ(cache.Stats().expired, 0u);
}

TYPED_TEST_P(TtlCacheTest, InfiniteAndHugeTtlsNeverExpire) {
  // Regression: seconds * 1e9 overflowed uint64 for these, so every such
  // entry expired on insert and the cache was silently off.
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(16), kInf);
  cache.Insert(TypeParam::Key(2), TypeParam::Value(16), 1e12);
  cache.Insert(TypeParam::Key(3), TypeParam::Value(16), 1e300);
  for (uint32_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(cache.Contains(TypeParam::Key(i))) << i;
    EXPECT_TRUE(cache.Lookup(TypeParam::Key(i)).has_value()) << i;
  }
  EXPECT_EQ(cache.Stats().expired, 0u);
  EXPECT_EQ(cache.Stats().hits, 3u);
}

TYPED_TEST_P(TtlCacheTest, StaleWindowServesExpiredEntriesOnce) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.5), kExpiredTtl);

  // Plain Lookup reaps; LookupStale inside the window serves instead.
  auto first = cache.LookupStale(TypeParam::Key(1), /*max_stale=*/kLongTtl);
  ASSERT_TRUE(first.value.has_value());
  EXPECT_TRUE(first.stale);
  EXPECT_TRUE(first.refresh_owner) << "first stale observer owns the refresh";
  EXPECT_DOUBLE_EQ(TypeParam::Fill(*first.value), 0.5);

  // The refresh is debounced: later stale observers serve but do not own.
  auto second = cache.LookupStale(TypeParam::Key(1), kLongTtl);
  ASSERT_TRUE(second.value.has_value());
  EXPECT_TRUE(second.stale);
  EXPECT_FALSE(second.refresh_owner);

  // A failed refresh re-arms the episode; the next observer owns again.
  cache.ClearRefreshPending(TypeParam::Key(1));
  EXPECT_TRUE(cache.LookupStale(TypeParam::Key(1), kLongTtl).refresh_owner);

  // A landed refresh resets everything: live entry, no stale flag.
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.5), kLongTtl);
  auto fresh = cache.LookupStale(TypeParam::Key(1), kLongTtl);
  ASSERT_TRUE(fresh.value.has_value());
  EXPECT_FALSE(fresh.stale);
  EXPECT_FALSE(fresh.refresh_owner);

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_served, 3u);
  EXPECT_EQ(stats.hits, 4u);  // stale serves still count as hits
}

TYPED_TEST_P(TtlCacheTest, StaleWindowBoundsServing) {
  typename TypeParam::Cache cache(8, 1);
  // Past the stale window the entry reaps.
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10), kExpiredTtl);
  EXPECT_FALSE(
      cache.LookupStale(TypeParam::Key(1), kExpiredTtl).value.has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().expired, 1u);
  // An infinite window never closes.
  cache.Insert(TypeParam::Key(2), TypeParam::Value(10), kExpiredTtl);
  auto stale = cache.LookupStale(TypeParam::Key(2), kInf);
  ASSERT_TRUE(stale.value.has_value());
  EXPECT_TRUE(stale.stale);
}

TYPED_TEST_P(TtlCacheTest, ExportSkipsExpiredAndCarriesRemainingTtl) {
  typename TypeParam::Cache cache(8, 1);
  cache.Insert(TypeParam::Key(1), TypeParam::Value(10, 0.1));
  cache.Insert(TypeParam::Key(2), TypeParam::Value(10, 0.2), kLongTtl);
  cache.Insert(TypeParam::Key(3), TypeParam::Value(10, 0.3), kExpiredTtl);
  const auto exported = cache.ExportEntries();
  ASSERT_EQ(exported.size(), 2u);  // the expired entry is skipped
  EXPECT_EQ(cache.size(), 3u);     // ...but not reaped
  // Most-recent first.
  EXPECT_TRUE(exported[0].key == TypeParam::Key(2));
  EXPECT_DOUBLE_EQ(TypeParam::Fill(exported[0].value), 0.2);
  EXPECT_GT(exported[0].ttl_seconds, 0.0);
  EXPECT_LE(exported[0].ttl_seconds, kLongTtl);
  EXPECT_TRUE(exported[1].key == TypeParam::Key(1));
  EXPECT_EQ(exported[1].ttl_seconds, 0.0);  // immortal
}

TYPED_TEST_P(TtlCacheTest, ConcurrentMixedWorkloadIsSafe) {
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
    TtlCacheTest,
    MissThenHit,
    EvictsLeastRecentlyUsed,
    EvictsLeastRecentlyUsedUnderBytePressure,
    EvictsByBytesNotEntryCount,
    BigEntryEvictsManySmallOnes,
    UnlimitedBytesKeepsEntryCountSemantics,
    RejectsEntryLargerThanWholeBudget,
    RejectedReinsertDropsTheOlderCopy,
    ReinsertReplacesAndReaccountsBytes,
    ClearDropsEntriesKeepsStats,
    ShardCountRoundsUpAndCapsAtCapacity,
    CapacityHoldsAcrossShards,
    EntriesExpireAfterTtl,
    LiveEntryServesUntilItsTtl,
    ExpiredEntryIsAbsentAndReapedOnLookup,
    TtlEntryStillExpiresAfterAHit,
    ReinsertAppliesNewTtl,
    ImmortalDefaultNeverExpires,
    InfiniteAndHugeTtlsNeverExpire,
    StaleWindowServesExpiredEntriesOnce,
    StaleWindowBoundsServing,
    ExportSkipsExpiredAndCarriesRemainingTtl,
    ConcurrentMixedWorkloadIsSafe);

}  // namespace relcomp::testing
