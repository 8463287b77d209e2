#include "common/bitvector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace relcomp {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  for (size_t i = 0; i < bv.size(); ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVector, SetGetClear) {
  BitVector bv(100);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(99);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(99));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Clear(63);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitVector, SetAllRespectsTail) {
  BitVector bv(70);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 70u);  // bits beyond 70 must stay clear
  bv.ClearAll();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVector, ExactWordBoundary) {
  BitVector bv(128);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 128u);
}

TEST(BitVector, FillBernoulliExtremes) {
  Rng rng(3);
  BitVector bv(200);
  bv.FillBernoulli(0.0, rng);
  EXPECT_EQ(bv.Count(), 0u);
  bv.FillBernoulli(1.0, rng);
  EXPECT_EQ(bv.Count(), 200u);
}

TEST(BitVector, FillBernoulliDensityMatchesP) {
  Rng rng(4);
  // Covers both the geometric-skip path (p < 0.25) and the dense path.
  for (const double p : {0.02, 0.1, 0.5, 0.9}) {
    BitVector bv(20000);
    bv.FillBernoulli(p, rng);
    const double density = static_cast<double>(bv.Count()) / 20000.0;
    EXPECT_NEAR(density, p, 0.02) << p;
  }
}

TEST(BitVector, FillBernoulliOverwritesPreviousContent) {
  Rng rng(5);
  BitVector bv(100);
  bv.SetAll();
  bv.FillBernoulli(0.01, rng);
  EXPECT_LT(bv.Count(), 20u);
}

TEST(BitVector, EqualityComparesSizeAndBits) {
  BitVector a(10);
  BitVector b(10);
  EXPECT_EQ(a, b);
  a.Set(3);
  EXPECT_NE(a, b);
  b.Set(3);
  EXPECT_EQ(a, b);
  BitVector c(11);
  c.Set(3);
  EXPECT_NE(a, c);
}

TEST(BitVector, ResizeGrowsWithZeros) {
  BitVector bv(10);
  bv.SetAll();
  bv.Resize(100);
  EXPECT_EQ(bv.Count(), 10u);
  EXPECT_FALSE(bv.Get(50));
}

TEST(BitVector, ResizeShrinkMasksTail) {
  BitVector bv(100);
  bv.SetAll();
  bv.Resize(10);
  EXPECT_EQ(bv.Count(), 10u);
}

TEST(BitVector, MemoryBytesTracksWords) {
  EXPECT_EQ(BitVector(64).MemoryBytes(), 8u);
  EXPECT_EQ(BitVector(65).MemoryBytes(), 16u);
  EXPECT_EQ(BitVector(0).MemoryBytes(), 0u);
  EXPECT_EQ(BitVector(1500).MemoryBytes(), 192u);  // 24 words
}

TEST(WordPrimitives, PopcountMatchesNaive) {
  Rng rng(11);
  auto naive = [](uint64_t w) {
    uint32_t c = 0;
    for (uint32_t i = 0; i < 64; ++i) c += (w >> i) & 1u;
    return c;
  };
  for (const uint64_t w : {uint64_t{0}, ~uint64_t{0}, uint64_t{1},
                           uint64_t{1} << 63, uint64_t{0xAAAAAAAAAAAAAAAA}}) {
    EXPECT_EQ(Popcount(w), naive(w)) << w;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t w = rng.NextU64();
    EXPECT_EQ(Popcount(w), naive(w)) << w;
  }
}

TEST(WordPrimitives, Rank64MatchesNaive) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t w = rng.NextU64();
    uint32_t ones = 0;
    for (uint32_t i = 0; i <= 64; ++i) {
      EXPECT_EQ(Rank64(w, i), ones) << w << " i=" << i;
      if (i < 64) ones += (w >> i) & 1u;
    }
  }
}

TEST(WordPrimitives, Select64MatchesNaive) {
  Rng rng(13);
  // Select64(w, k) is the position of the k-th one; oracle by linear scan.
  // Includes sparse, dense, and boundary words.
  std::vector<uint64_t> words = {uint64_t{1}, uint64_t{1} << 63, ~uint64_t{0},
                                 uint64_t{0x8000000000000001}};
  for (int trial = 0; trial < 200; ++trial) words.push_back(rng.NextU64());
  for (const uint64_t w : words) {
    uint32_t k = 0;
    for (uint32_t i = 0; i < 64; ++i) {
      if ((w >> i) & 1u) {
        ++k;
        EXPECT_EQ(Select64(w, k), i) << w << " k=" << k;
        EXPECT_EQ(Rank64(w, Select64(w, k)), k - 1) << w;  // inverse law
      }
    }
  }
}

TEST(WordPrimitives, SliceWord64StitchesAcrossBoundary) {
  const uint64_t words[2] = {0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF};
  for (uint32_t off = 0; off < 64; ++off) {
    uint64_t expected = words[0] >> off;
    if (off != 0) expected |= words[1] << (64 - off);
    EXPECT_EQ(SliceWord64(words, 2, 0, off), expected) << off;
  }
  // Bits past the span read as zero.
  EXPECT_EQ(SliceWord64(words, 2, 2, 0), 0u);
  EXPECT_EQ(SliceWord64(words, 2, 1, 8), words[1] >> 8);
}

/// The textbook world fill FillBernoulliWords must reproduce draw for draw:
/// geometric skipping below p = 0.25, one Rng::Bernoulli per bit otherwise
/// (which draws nothing for p <= 0 or p >= 1, and draws but never sets for
/// NaN). A zero-length fill draws nothing.
std::vector<uint64_t> ReferenceFill(size_t num_bits, double p, Rng& rng) {
  std::vector<uint64_t> words((num_bits + 63) / 64, 0);
  auto set = [&](size_t i) { words[i / 64] |= uint64_t{1} << (i % 64); };
  if (num_bits > 0 && p > 0.0 && p < 0.25) {
    for (size_t i = rng.Geometric(p); i < num_bits; i += 1 + rng.Geometric(p)) {
      set(i);
    }
  } else {
    for (size_t i = 0; i < num_bits; ++i) {
      if (rng.Bernoulli(p)) set(i);
    }
  }
  return words;
}

TEST(BitVector, FillBernoulliWordsMatchesReferenceLoop) {
  // The worlds, the zeroed tail of the last word (the output starts all
  // ones) and the RNG position afterwards must all match the reference.
  const double probs[] = {0.0,
                          std::numeric_limits<double>::denorm_min(),
                          1e-300,
                          std::nextafter(0.25, 0.0),
                          0.25,
                          1.0 / 3.0,
                          0.5,
                          std::nextafter(1.0, 0.0),
                          1.0,
                          std::numeric_limits<double>::quiet_NaN(),
                          -0.5,
                          1.5};
  for (const double p : probs) {
    for (const size_t len : {0u, 1u, 63u, 64u, 65u, 1500u}) {
      for (const uint64_t seed : {1ULL, 99ULL, 0x5EEDULL}) {
        Rng rng_ref(seed);
        Rng rng_fill(seed);
        const std::vector<uint64_t> expected = ReferenceFill(len, p, rng_ref);
        std::vector<uint64_t> words((len + 63) / 64, ~uint64_t{0});
        BitVector::FillBernoulliWords(words.data(), len, p, rng_fill);
        EXPECT_EQ(words, expected) << p << "/" << len << "/" << seed;
        EXPECT_EQ(rng_fill.NextU64(), rng_ref.NextU64())
            << "stream diverged at " << p << "/" << len << "/" << seed;
      }
    }
  }
}

TEST(BitVector, NarrowedFillStoresThePrefixOfTheWholeFill) {
  // A fill that stores only its first W words must write ReferenceFill's
  // first W words (the zeroed tail included: they start all ones), leave
  // the stream where the whole fill leaves it, and store nothing past them:
  // the guard words after them, all zeros or all ones, stay as they were.
  const double probs[] = {std::numeric_limits<double>::denorm_min(),
                          1e-300,
                          1e-3,
                          0.1,
                          std::nextafter(0.25, 0.0),
                          0.25,
                          1.0 / 3.0,
                          0.5,
                          0.9,
                          std::nextafter(1.0, 0.0),
                          1.0,
                          0.0,
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double p : probs) {
    for (const size_t len : {1u, 63u, 64u, 65u, 1500u}) {
      const size_t whole_words = (len + 63) / 64;
      for (size_t stored = 1; stored <= whole_words; ++stored) {
        for (uint64_t seed = 1; seed <= 16; ++seed) {
          SCOPED_TRACE(::testing::Message() << "p = " << p << ", L = " << len
                                            << ", W = " << stored
                                            << ", seed " << seed);
          Rng reference(seed);
          const std::vector<uint64_t> whole = ReferenceFill(len, p, reference);
          ScopedRngState expected_state(reference);
          for (const uint64_t guard : {uint64_t{0}, ~uint64_t{0}}) {
            std::vector<uint64_t> expected(whole.begin(),
                                           whole.begin() + stored);
            expected.resize(whole_words + 1, guard);
            std::vector<uint64_t> words(whole_words + 1, guard);
            std::fill(words.begin(), words.begin() + stored, ~uint64_t{0});
            Rng rng(seed);
            ScopedRngState state(rng);
            BitVector::FillBernoulliWords(words.data(), len, stored, p,
                                          state.state());
            ASSERT_EQ(words, expected) << "guard " << guard;
            for (int i = 0; i < 4; ++i) {
              ASSERT_EQ(state.state().s[i], expected_state.state().s[i])
                  << "state word " << i;
            }
          }
        }
      }
    }
  }
}

/// The probabilities of the geometric fill's boundary cases: 1/d for
/// d = 5..64, a few small ones, the smallest subnormal and the largest
/// double below the 0.25 cut-off.
std::vector<double> GeometricProbabilities() {
  std::vector<double> probs;
  for (int d = 5; d <= 64; ++d) probs.push_back(1.0 / d);
  for (const double p : {1e-3, 1e-6, 1e-300,
                         std::numeric_limits<double>::denorm_min(),
                         std::nextafter(0.25, 0.0)}) {
    probs.push_back(p);
  }
  return probs;
}

/// A state whose next draw is `x`, its other words from `rng`:
/// xoshiro256**'s output rotl(s1 * 5, 7) * 9 is invertible in s1.
RngState StateWhoseNextDrawIs(uint64_t x, Rng& rng) {
  constexpr uint64_t kInverseOf9 = 0x8E38E38E38E38E39;  // mod 2^64
  constexpr uint64_t kInverseOf5 = 0xCCCCCCCCCCCCCCCD;
  RngState state;
  for (uint64_t& word : state.s) word = rng.NextU64();
  state.s[1] = std::rotr(x * kInverseOf9, 7) * kInverseOf5;
  return state;
}

/// The state that RngState::Next moves to `state`.
RngState PreviousState(const RngState& state) {
  const uint64_t s3 = std::rotr(state.s[3], 45);  // s3 ^ s1 before the step
  const uint64_t y = state.s[1] ^ state.s[2];     // s1 ^ (s1 << 17)
  RngState before;
  before.s[1] = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  before.s[3] = s3 ^ before.s[1];
  before.s[0] = state.s[0] ^ s3;
  before.s[2] = state.s[2] ^ before.s[0] ^ (before.s[1] << 17);
  return before;
}

/// Empty when FillBernoulliWords from `start` writes the words of
/// ReferenceFill (the zeroed tail included: the output starts all ones) and
/// leaves the state where the reference leaves the stream; else what
/// differs.
std::string FillMismatch(size_t num_bits, double p, const RngState& start) {
  Rng reference;
  { ScopedRngState scoped(reference); scoped.state() = start; }
  const std::vector<uint64_t> expected = ReferenceFill(num_bits, p, reference);
  std::vector<uint64_t> words((num_bits + 63) / 64, ~uint64_t{0});
  RngState state = start;
  BitVector::FillBernoulliWords(words.data(), num_bits, p, state);
  ScopedRngState expected_state(reference);
  std::ostringstream out;
  out.precision(17);
  if (words != expected) out << "words differ";
  for (int i = 0; i < 4; ++i) {
    if (state.s[i] != expected_state.state().s[i]) {
      out << " state word " << i << " differs";
    }
  }
  if (!out.str().empty()) out << " at p = " << p << ", L = " << num_bits;
  return out.str();
}

TEST(BitVector, GeometricFillMatchesTheReferenceAtBoundaryDraws) {
  // The fill certifies floor(log(U) / log1p(-p)) from a table log and falls
  // back to the reference's inversion where it cannot. Draws within a few
  // units of 2^-53 of exp(k log1p(-p)) put the quotient within rounding of
  // the integer k, where only the fallback gives the reference's floor. Each
  // such draw is placed first, fourth and last in the fill's first block of
  // 8 draws, and first in its second.
  Rng rng(0xB0DA);
  for (const double p : GeometricProbabilities()) {
    const double log1m_p = std::log1p(-p);
    for (int k = 0; k <= 40; ++k) {
      const double m0 = std::round(std::exp(k * log1m_p) * 0x1.0p53);
      for (int offset = -3; offset <= 3; ++offset) {
        const uint64_t m = static_cast<uint64_t>(
            std::clamp(m0 + offset, 1.0, 0x1.0p53 - 1.0));
        const uint64_t x = (m << 11) | (rng.NextU64() >> 53);
        for (const int position : {0, 3, 7, 8}) {
          RngState start = StateWhoseNextDrawIs(x, rng);
          for (int t = 0; t < position; ++t) start = PreviousState(start);
          const std::string mismatch = FillMismatch(1500, p, start);
          ASSERT_EQ(mismatch, "") << "k = " << k << ", offset " << offset
                                  << ", position " << position;
        }
      }
    }
    // A zero draw, which the reference draws again, at the same positions;
    // and the smallest nonzero draw first in a fill of 64 bits, whose first
    // variate (at least 127 for p < 0.25) already passes the end.
    for (const int position : {0, 3, 7, 8}) {
      RngState start = StateWhoseNextDrawIs(rng.NextU64() >> 53, rng);
      for (int t = 0; t < position; ++t) start = PreviousState(start);
      ASSERT_EQ(FillMismatch(1500, p, start), "") << "zero draw, position "
                                                  << position;
    }
    ASSERT_EQ(FillMismatch(64, p, StateWhoseNextDrawIs(uint64_t{1} << 11, rng)),
              "")
        << "first variate past the end";
  }
}

TEST(BitVector, GeometricFillMatchesTheReferenceOnADenseGrid) {
  // Short lengths, lengths around the word size, and L = 1500, from 64
  // random states each, at every probability of the boundary test.
  for (const double p : GeometricProbabilities()) {
    for (const size_t len : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u,
                             1500u}) {
      Rng rng(0x6E0 + len);
      for (int seed = 0; seed < 64; ++seed) {
        RngState start;
        for (uint64_t& word : start.s) word = rng.NextU64();
        ASSERT_EQ(FillMismatch(len, p, start), "") << "seed " << seed;
      }
    }
  }
}

TEST(BitVector, FillCoinWords4MatchesFourFills) {
  // Each lane must write the words (the zeroed tail of the last word
  // included: the output starts all ones) and leave the state that its own
  // FillBernoulliWords call does, whatever the other lanes draw.
  RecordProperty("fill_coin_words4_avx2",
                 BitVector::FillCoinWords4UsesAvx2() ? "yes" : "no");
  const double special[] = {std::numeric_limits<double>::quiet_NaN(), 0.25,
                            std::nextafter(1.0, 0.0)};
  Rng rng(0xC0115);
  for (const size_t len : {1u, 63u, 64u, 65u, 100u, 1500u}) {
    const size_t num_words = (len + 63) / 64;
    for (int trial = 0; trial < 8; ++trial) {
      double p[4];
      RngState states[4];
      for (int lane = 0; lane < 4; ++lane) {
        p[lane] = 0.25 + 0.75 * rng.NextDouble();
        for (uint64_t& word : states[lane].s) word = rng.NextU64();
      }
      // Trials 0-2 put the three cut-off values in lanes that rotate with
      // the trial; the rest draw every lane from [0.25, 1).
      if (trial < 3) {
        for (int k = 0; k < 3; ++k) p[(trial + k) % 4] = special[k];
      }
      std::vector<uint64_t> expected(4 * num_words, ~uint64_t{0});
      std::vector<uint64_t> got(4 * num_words, ~uint64_t{0});
      RngState expected_states[4];
      uint64_t* got_words[4];
      for (int lane = 0; lane < 4; ++lane) {
        expected_states[lane] = states[lane];
        BitVector::FillBernoulliWords(expected.data() + lane * num_words, len,
                                      p[lane], expected_states[lane]);
        got_words[lane] = got.data() + lane * num_words;
      }
      BitVector::FillCoinWords4(got_words, len, p, states);
      SCOPED_TRACE(::testing::Message() << "L = " << len << ", trial "
                                        << trial);
      EXPECT_EQ(got, expected);
      for (int lane = 0; lane < 4; ++lane) {
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(states[lane].s[i], expected_states[lane].s[i])
              << "lane " << lane << " state word " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace relcomp
