#include "common/bitvector.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/rng.h"

namespace relcomp {

namespace {
constexpr size_t kWordBits = 64;
inline size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

BitVector::BitVector(size_t num_bits)
    : num_bits_(num_bits), words_(WordsFor(num_bits), 0) {}

void BitVector::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize(WordsFor(num_bits), 0);
  MaskTail();
}

void BitVector::Set(size_t i) { words_[i / kWordBits] |= (1ULL << (i % kWordBits)); }

void BitVector::Clear(size_t i) {
  words_[i / kWordBits] &= ~(1ULL << (i % kWordBits));
}

bool BitVector::Get(size_t i) const {
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVector::SetAll() {
  for (auto& w : words_) w = ~0ULL;
  MaskTail();
}

void BitVector::ClearAll() {
  for (auto& w : words_) w = 0;
}

size_t BitVector::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += Popcount(w);
  return count;
}

void BitVector::FillBernoulli(double p, Rng& rng) {
  FillBernoulliWords(words_.data(), num_bits_, p, rng);
}

namespace {

/// The integer coin threshold of a per-bit fill: NextDouble() < p iff
/// (x >> 11) < ceil(p * 2^53), since p * 2^53 is exact. NaN keeps threshold
/// 0: it draws every coin and sets none, like Rng::Bernoulli.
uint64_t CoinThreshold(double p) {
  return std::isnan(p) ? 0 : static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

/// The tables of LogOfDraw (2.5 KiB). steps[k] holds log(c) and 1/c for
/// c = 1 + (k + 1/2) / 128, the centre of the k-th of the 128 equal steps of
/// [1, 2). exponent_log[E % 64] holds (E - 1076) log 2 for each biased
/// exponent E in [1023, 1075] that the double of an m in [1, 2^53) can have.
struct LogTables {
  struct Step {
    double log_c;
    double inv_c;
  };
  std::array<Step, 128> steps;
  std::array<double, 64> exponent_log;
};

const LogTables& GetLogTables() {
  static const LogTables tables = [] {
    LogTables t{};
    for (int k = 0; k < 128; ++k) {
      const double c = 1.0 + (k + 0.5) / 128.0;
      t.steps[k] = {std::log(c), 1.0 / c};
    }
    for (int e = 1023; e <= 1075; ++e) {
      t.exponent_log[e % 64] = (e - 1076) * 0.6931471805599453;
    }
    return t;
  }();
  return tables;
}

/// log(m * 2^-53) for m in [1, 2^53), within 5.9e-11, with no branch. The
/// double of m is 2^e * f with f in [1, 2), and f's top 7 fraction bits pick
/// the step c with |f - c| <= 2^-8. So r = f / c - 1 has |r| < 2^-8, and
/// log1p(r) is a cubic in r. m = 0 returns a finite value that is no log.
inline double LogOfDraw(uint64_t m, const LogTables& tables) {
  constexpr uint64_t kFraction = (uint64_t{1} << 52) - 1;
  constexpr uint64_t kOne = uint64_t{1023} << 52;
  const uint64_t bits =
      std::bit_cast<uint64_t>(static_cast<double>(static_cast<int64_t>(m)));
  const LogTables::Step& step = tables.steps[(bits >> 45) & 127];
  const double f = std::bit_cast<double>((bits & kFraction) | kOne);
  const double r = f * step.inv_c - 1.0;
  return tables.exponent_log[(bits >> 52) & 63] + step.log_c +
         (r + r * r * (-0.5 + r * (1.0 / 3.0)));
}

/// `state` after `draws` calls of Next().
RngState AfterDraws(RngState state, int draws) {
  for (int t = 0; t < draws; ++t) state.Next();
  return state;
}

/// Where a run of geometric variates ended: the generator state after the
/// draw that ended it, and the position that draw's variate landed on.
struct GeometricRunEnd {
  RngState state;
  size_t position;
};

/// FillWords' geometric skipping (0 < p < 0.25): the reference loop's
/// variates, each floor(q) for q = log(U) / log1p(-p), without a log per
/// variate, from the bit last set at `position` (SIZE_MAX before the first,
/// so that the first variate X lands on position + 1 + X = X, as in the
/// reference loop) until one lands at or past `end`. With kStore, it sets
/// the bit each earlier variate lands on. It draws 8 uniforms at a time and
/// takes each q' = LogOfDraw * (1 / log1p(-p)). When, for every draw of
/// the block, q' +- tol lies inside one integer step, that step is the
/// reference's floor, since tol bounds |q' - q|. A block with any other
/// draw (about 1 in 10^7 blocks or fewer on the bundled graphs, or a zero
/// draw) takes the reference's own GeometricFromUniform for each draw. At
/// the run's end the state is stepped from the block's start to the draw
/// after the last one used. So the variates and the state are the
/// reference loop's, however the runs split the stream into blocks. See
/// src/reliability/README.md, "Certified geometric variates".
template <bool kStore>
GeometricRunEnd GeometricRun(uint64_t* words, size_t position, size_t end,
                             double log1m_p, RngState state) {
  constexpr int kBlock = 8;
  // Bounds |q' - q| * |log1p(-p)|: LogOfDraw's 5.9e-11, the reference's
  // log (1 ulp) and the roundings of both quotients and of q' +- tol, with
  // a margin of about 2.
  constexpr double kLogError = 0x1p-33;
  const LogTables& tables = GetLogTables();
  const double inv_log1m_p = 1.0 / log1m_p;
  // +inf when 1 / log1p(-p) overflows (p below about 5.6e-309): then no
  // floor is certified.
  const double tol = kLogError * -inv_log1m_p;
  size_t i = position;
  for (;;) {
    const RngState block_start = state;
    uint64_t m[kBlock];
    for (int j = 0; j < kBlock; ++j) m[j] = state.Next() >> 11;
    int64_t floors[kBlock];
    bool certified = true;
#pragma GCC unroll 8
    for (int j = 0; j < kBlock; ++j) {
      const double q = LogOfDraw(m[j], tables) * inv_log1m_p;
      const double lo = q - tol;
      const double hi = q + tol;
      // Only values shown to lie in [0, 2^52) are converted; NaN fails.
      const bool in_range = lo >= 0.0 && hi < 0x1p52;
      floors[j] = static_cast<int64_t>(in_range ? lo : 0.0);
      certified &= in_range && m[j] != 0 &&
                   floors[j] == static_cast<int64_t>(in_range ? hi : 0.0);
    }
    if (certified) {
      for (int j = 0; j < kBlock; ++j) {
        i += 1 + static_cast<uint64_t>(floors[j]);
        if (i >= end) return {AfterDraws(block_start, j + 1), i};
        if constexpr (kStore) words[i / kWordBits] |= 1ULL << (i % kWordBits);
      }
      continue;
    }
    for (int j = 0; j < kBlock; ++j) {
      if (m[j] == 0) continue;  // the reference draws a zero uniform again
      i += 1 + GeometricFromUniform(static_cast<double>(m[j]) * 0x1.0p-53,
                                    log1m_p);
      if (i >= end) return {AfterDraws(block_start, j + 1), i};
      if constexpr (kStore) words[i / kWordBits] |= 1ULL << (i % kWordBits);
    }
  }
}

/// The run that stores nothing, out of line: inlined next to the storing
/// run, it made the whole-width fill, which never calls it, 1-2 % slower
/// (BM_SerialPass).
__attribute__((noinline)) GeometricRunEnd CountingRun(size_t position,
                                                      size_t end,
                                                      double log1m_p,
                                                      RngState state) {
  return GeometricRun<false>(nullptr, position, end, log1m_p, state);
}

/// The geometric fill of `num_bits` bits that stores the first
/// `stored_bits`: one run sets the bits below stored_bits, and when it ends
/// short of num_bits a second run, which stores nothing, draws the
/// variates that still position the stream.
RngState FillGeometric(uint64_t* words, size_t num_bits, size_t stored_bits,
                       double p, RngState state) {
  const double log1m_p = std::log1p(-p);
  GeometricRunEnd run =
      GeometricRun<true>(words, SIZE_MAX, stored_bits, log1m_p, state);
  if (run.position < num_bits) {
    run = CountingRun(run.position, num_bits, log1m_p, run.state);
  }
  return run.state;
}

/// FillBernoulliWords' body, storing the first `stored_words` words. The
/// draws go through `state`, a by-value copy of the caller's generator
/// state, which is returned: a word store may alias the caller's state, so
/// drawing through it would reload and store the state around every store.
RngState FillWords(uint64_t* words, size_t num_bits, size_t stored_words,
                   double p, RngState state) {
  const size_t stored_bits = std::min(num_bits, stored_words * kWordBits);
  const size_t num_words = WordsFor(stored_bits);
  const size_t rem = stored_bits % kWordBits;
  if (p >= 1.0) {
    std::fill(words, words + num_words, ~0ULL);
    if (rem != 0) words[num_words - 1] = (1ULL << rem) - 1;
    return state;
  }
  // Geometric skipping: expected work O(p * num_bits) instead of O(num_bits),
  // matching how sparse most uncertain-graph edges are.
  if (p < 0.25) {
    std::fill(words, words + num_words, 0);
    if (num_bits == 0 || p <= 0.0) return state;
    return FillGeometric(words, num_bits, stored_bits, p, state);
  }
  // One coin per bit, compared as integers.
  const uint64_t threshold = CoinThreshold(p);
  auto coins = [&](size_t count) {
    uint64_t word = 0;
    for (size_t b = 0; b < count; ++b) {
      word |= static_cast<uint64_t>((state.Next() >> 11) < threshold) << b;
    }
    return word;
  };
  const size_t full_words = stored_bits / kWordBits;
  for (size_t w = 0; w < full_words; ++w) words[w] = coins(kWordBits);
  if (rem != 0) words[full_words] = coins(rem);
  // The coins past the stored words are drawn and dropped. Resample drops
  // none: its coin pass tosses only the stored coins, and its serial pass
  // jumps the stream over each coin edge instead.
  for (size_t b = stored_bits; b < num_bits; ++b) state.Next();
  return state;
}

#if defined(__x86_64__) || defined(__i386__)

using U64x4 = uint64_t __attribute__((vector_size(32)));
using I64x4 = int64_t __attribute__((vector_size(32)));

/// FillCoinWords4's body on AVX2: FillWords' coin loop with lane i running
/// stream i. Each lane steps its xoshiro256** state exactly as
/// RngState::Next does (x * 5 and x * 9 as shift-adds, since AVX2 has no
/// 64-bit multiply) and compares (x >> 11) with its threshold. The compare
/// is signed, which is exact: both sides are below 2^63. Each lane's word is
/// built in a register and stored once.
__attribute__((target("avx2"))) void FillCoinWords4Avx2(
    uint64_t* const words[4], size_t num_bits, const double p[4],
    RngState states[4]) {
  const RngState* in = states;
  U64x4 s0 = {in[0].s[0], in[1].s[0], in[2].s[0], in[3].s[0]};
  U64x4 s1 = {in[0].s[1], in[1].s[1], in[2].s[1], in[3].s[1]};
  U64x4 s2 = {in[0].s[2], in[1].s[2], in[2].s[2], in[3].s[2]};
  U64x4 s3 = {in[0].s[3], in[1].s[3], in[2].s[3], in[3].s[3]};
  const I64x4 threshold = {static_cast<int64_t>(CoinThreshold(p[0])),
                           static_cast<int64_t>(CoinThreshold(p[1])),
                           static_cast<int64_t>(CoinThreshold(p[2])),
                           static_cast<int64_t>(CoinThreshold(p[3]))};
  for (size_t first = 0; first < num_bits; first += kWordBits) {
    const size_t count = std::min(kWordBits, num_bits - first);
    U64x4 word = {0, 0, 0, 0};
    U64x4 bit = {1, 1, 1, 1};
    for (size_t b = 0; b < count; ++b) {
      const U64x4 x5 = (s1 << 2) + s1;
      const U64x4 r = (x5 << 7) | (x5 >> 57);
      const U64x4 result = (r << 3) + r;
      const U64x4 t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      const I64x4 coin = reinterpret_cast<I64x4>(result >> 11) < threshold;
      word |= reinterpret_cast<U64x4>(coin) & bit;
      bit += bit;
    }
    for (int lane = 0; lane < 4; ++lane) {
      words[lane][first / kWordBits] = word[lane];
    }
  }
  for (int lane = 0; lane < 4; ++lane) {
    states[lane].s[0] = s0[lane];
    states[lane].s[1] = s1[lane];
    states[lane].s[2] = s2[lane];
    states[lane].s[3] = s3[lane];
  }
}

#endif

}  // namespace

void BitVector::FillCoinWords4(uint64_t* const words[4], size_t num_bits,
                               const double p[4], RngState states[4]) {
#if defined(__x86_64__) || defined(__i386__)
  if (FillCoinWords4UsesAvx2()) {
    FillCoinWords4Avx2(words, num_bits, p, states);
    return;
  }
#endif
  for (int lane = 0; lane < 4; ++lane) {
    FillBernoulliWords(words[lane], num_bits, p[lane], states[lane]);
  }
}

bool BitVector::FillCoinWords4UsesAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // Checked once, at run time: src/ builds for the baseline ISA, and an
  // ifunc (target_clones) would resolve before ThreadSanitizer's runtime is
  // set up.
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2;
#else
  return false;
#endif
}

void BitVector::FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                   Rng& rng) {
  ScopedRngState local(rng);
  FillBernoulliWords(words, num_bits, p, local.state());
}

void BitVector::FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                   RngState& state) {
  state = FillWords(words, num_bits, WordsFor(num_bits), p, state);
}

void BitVector::FillBernoulliWords(uint64_t* words, size_t num_bits,
                                   size_t stored_words, double p,
                                   RngState& state) {
  state = FillWords(words, num_bits, stored_words, p, state);
}

bool BitVector::operator==(const BitVector& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

void BitVector::MaskTail() {
  const size_t rem = num_bits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1;
  }
}

}  // namespace relcomp
