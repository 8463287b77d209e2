#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace relcomp {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.NextU64() == b.NextU64());
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  const uint64_t first = a.NextU64();
  a.NextU64();
  a.Reseed(9);
  EXPECT_EQ(a.NextU64(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsHalf) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsAndUniformity) {
  Rng rng(6);
  std::vector<int> hist(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++hist[v];
  }
  // Chi-square with 6 dof; bound is far above the 99.9% quantile (22.5).
  double chi2 = 0.0;
  for (int count : hist) {
    const double expected = 10000.0;
    chi2 += (count - expected) * (count - expected) / expected;
  }
  EXPECT_LT(chi2, 40.0);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 3000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  for (const double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / kN, p, 0.01) << p;
  }
}

TEST(Rng, GeometricMeanMatchesTheory) {
  // E[X] = (1-p)/p for the failures-before-success support used by LP.
  Rng rng(10);
  for (const double p : {0.05, 0.3, 0.7}) {
    double sum = 0.0;
    constexpr int kN = 60000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.Geometric(p));
    const double expected = (1.0 - p) / p;
    EXPECT_NEAR(sum / kN, expected, expected * 0.05 + 0.02) << p;
  }
}

TEST(Rng, GeometricOfOneIsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Geometric(1.0), 0u);
}

TEST(Rng, GeometricIsTheInversionFormula) {
  // Geometric(p) and GeometricFromLog1mP(log1p(-p)) are both exactly
  // floor(log(U) / log1p(-p)) over a nonzero uniform U, clamped to
  // [0, 9e18] — including for probabilities so small the quotient
  // overflows to the clamp.
  for (const double p : {std::numeric_limits<double>::denorm_min(), 1e-300,
                         1e-3, 0.1, std::nextafter(0.25, 0.0), 0.5}) {
    Rng reference(17);
    Rng by_p(17);
    Rng by_log(17);
    const double log1m_p = std::log1p(-p);
    for (int i = 0; i < 500; ++i) {
      double u = reference.NextDouble();
      while (u <= 0.0) u = reference.NextDouble();
      const double x = std::min(
          std::max(std::floor(std::log(u) / std::log1p(-p)), 0.0), 9.0e18);
      const uint64_t expected = static_cast<uint64_t>(x);
      ASSERT_EQ(by_p.Geometric(p), expected) << p;
      ASSERT_EQ(by_log.GeometricFromLog1mP(log1m_p), expected) << p;
    }
    const uint64_t next = reference.NextU64();
    EXPECT_EQ(by_p.NextU64(), next) << p;
    EXPECT_EQ(by_log.NextU64(), next) << p;
  }
  // p = 1: log1m_p = -inf, so every quotient is +0. The inversion still
  // draws one uniform per variate (Geometric(1) itself draws nothing).
  Rng reference(18);
  Rng by_log(18);
  for (int i = 0; i < 500; ++i) {
    double u = reference.NextDouble();
    while (u <= 0.0) u = reference.NextDouble();
    ASSERT_EQ(by_log.GeometricFromLog1mP(
                  -std::numeric_limits<double>::infinity()),
              0u);
  }
  EXPECT_EQ(by_log.NextU64(), reference.NextU64());
  // A NaN quotient reads as the upper clamp; it never reaches the integer
  // conversion.
  EXPECT_EQ(by_log.GeometricFromLog1mP(std::nan("")),
            uint64_t{9'000'000'000'000'000'000});
}

TEST(Rng, GeometricChiSquareGoodnessOfFit) {
  // P(X = k) = p (1-p)^k; buckets 0..5 plus tail => 6 dof.
  Rng rng(12);
  const double p = 0.4;
  constexpr int kN = 60000;
  std::vector<int> hist(7, 0);
  for (int i = 0; i < kN; ++i) {
    const uint64_t x = rng.Geometric(p);
    ++hist[std::min<uint64_t>(x, 6)];
  }
  double chi2 = 0.0;
  double tail = 1.0;
  for (int k = 0; k < 6; ++k) {
    const double pk = p * std::pow(1.0 - p, k);
    tail -= pk;
    const double expected = pk * kN;
    chi2 += (hist[k] - expected) * (hist[k] - expected) / expected;
  }
  const double expected_tail = tail * kN;
  chi2 += (hist[6] - expected_tail) * (hist[6] - expected_tail) / expected_tail;
  EXPECT_LT(chi2, 40.0);  // ~99.99% quantile of chi2(6) is 31.5
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(14);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.Split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.NextU64() == child.NextU64());
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t a = SplitMix64(state);
  const uint64_t b = SplitMix64(state);
  EXPECT_NE(a, b);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), a);
}

TEST(RngJump, EqualsSteppingTheStateOneDrawAtATime) {
  // The golden suite's world counts plus the neighbours of a word boundary.
  Rng seeds(0x7A11);
  for (const uint64_t steps : {1ULL, 63ULL, 64ULL, 100ULL, 1500ULL}) {
    SCOPED_TRACE(steps);
    const RngJump& jump = RngJump::ForSteps(steps);
    EXPECT_EQ(&RngJump::ForSteps(steps), &jump);  // built once per count
    for (int trial = 0; trial < 20; ++trial) {
      RngState stepped;
      for (uint64_t& word : stepped.s) word = seeds.NextU64();
      RngState jumped = stepped;
      for (uint64_t i = 0; i < steps; ++i) stepped.Next();
      jump.Apply(jumped);
      for (int w = 0; w < 4; ++w) EXPECT_EQ(jumped.s[w], stepped.s[w]) << w;
      // Both continue with the same draws.
      EXPECT_EQ(jumped.Next(), stepped.Next());
    }
  }
}

}  // namespace
}  // namespace relcomp
