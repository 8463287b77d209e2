// Unit coverage for the sweep memo, the SweepCache instantiation of the
// engine's one LRU cache (engine/lru_cache.h): the behaviours it shares
// with the result cache run as the LruCacheTest suite (lru_cache_suite.h);
// the sweep-only cases (shared_ptr identity, key fields, a handed-out
// vector outliving its eviction, no byte floor, null refusal) are plain
// tests.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/lru_cache.h"
#include "lru_cache_suite.h"

namespace relcomp {
namespace {

using testing::ByteBudgetCache;

/// The sweep memo under test: a value of `units` payload units is a sweep
/// over that many nodes.
struct SweepSide {
  using Cache = SweepCache;
  static SweepCacheKey Key(uint32_t i) {
    return SweepCacheKey{EstimatorKind::kMonteCarlo, i, 100, 7};
  }
  static SweepVector Value(size_t units, double fill = 0.5) {
    return std::make_shared<const std::vector<double>>(units, fill);
  }
  static double Fill(const SweepVector& value) { return value->front(); }
  static size_t Units(const SweepVector& value) { return value->size(); }
};

}  // namespace

namespace testing {
INSTANTIATE_TYPED_TEST_SUITE_P(Sweep, LruCacheTest, SweepSide);
}  // namespace testing

namespace {

// ---------------------------------------------------------------------------
// Keys and shared_ptr identity
// ---------------------------------------------------------------------------

TEST(SweepCacheTest, LookupReturnsInsertedVectorByIdentity) {
  auto cache = ByteBudgetCache<SweepSide>(1 << 20);
  EXPECT_FALSE(cache->Lookup(SweepSide::Key(1)).has_value());
  const SweepVector sweep = SweepSide::Value(64);
  cache->Insert(SweepSide::Key(1), sweep);
  const auto hit = cache->Lookup(SweepSide::Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), sweep.get());  // shared, not copied
  EXPECT_EQ(cache->bytes_in_use(), 64 * sizeof(double));

  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SweepCacheTest, DistinctKeyFieldsDoNotAlias) {
  auto cache = ByteBudgetCache<SweepSide>(1 << 20);
  const SweepCacheKey base{EstimatorKind::kMonteCarlo, 1, 100, 7};
  cache->Insert(base, SweepSide::Value(8));
  SweepCacheKey other = base;
  other.source = 2;
  EXPECT_FALSE(cache->Lookup(other).has_value());  // other source
  other = base;
  other.seed = 8;
  EXPECT_FALSE(cache->Lookup(other).has_value());  // other seed / generation
  other = base;
  other.kind = EstimatorKind::kBfsSharing;
  EXPECT_FALSE(cache->Lookup(other).has_value());
  other = base;
  other.num_samples = 200;
  EXPECT_FALSE(cache->Lookup(other).has_value());
  EXPECT_TRUE(cache->Lookup(base).has_value());
}

TEST(SweepCacheTest, EvictionNeverInvalidatesAHandedOutSweep) {
  auto cache = ByteBudgetCache<SweepSide>(10 * sizeof(double));
  cache->Insert(SweepSide::Key(1), SweepSide::Value(10, 0.25));
  const auto held = cache->Lookup(SweepSide::Key(1));
  ASSERT_TRUE(held.has_value());
  cache->Insert(SweepSide::Key(2), SweepSide::Value(10, 0.5));  // evicts 1
  EXPECT_FALSE(cache->Lookup(SweepSide::Key(1)).has_value());
  // The reader's shared_ptr keeps the vector alive and intact.
  EXPECT_EQ((*held)->size(), 10u);
  EXPECT_DOUBLE_EQ((*held)->front(), 0.25);
}

TEST(SweepCacheTest, TinyBudgetIsNotFloored) {
  // A sweep's smallest charge is 0 bytes, so no floor lifts the budget.
  auto cache = ByteBudgetCache<SweepSide>(8);
  cache->Insert(SweepSide::Key(1), SweepSide::Value(2));  // 16 bytes
  EXPECT_FALSE(cache->Lookup(SweepSide::Key(1)).has_value());
  EXPECT_EQ(cache->Stats().rejected, 1u);
}

TEST(SweepCacheTest, NullSweepIsRefused) {
  auto cache = ByteBudgetCache<SweepSide>(1 << 20);
  cache->Insert(SweepSide::Key(1), nullptr);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->Stats().insertions, 0u);
}

}  // namespace
}  // namespace relcomp
