#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

namespace relcomp {

/// \brief SplitMix64 step; used to expand a single 64-bit seed into the
/// xoshiro256** state. Also usable as a cheap hash.
uint64_t SplitMix64(uint64_t& state);

/// \brief Stateless stream splitter: derives a child seed from `seed` and a
/// distinguishing `value` (a query field, a worker index, ...). Chaining
/// calls folds several fields into one seed:
///
///   uint64_t s = HashCombineSeed(master, source);
///   s = HashCombineSeed(s, target);
///
/// Equal inputs give equal outputs on every platform, which is what lets the
/// engine assign per-query seeds that are independent of thread count and
/// scheduling order.
uint64_t HashCombineSeed(uint64_t seed, uint64_t value);

/// \name Stratified sample partitioning
///
/// A sample budget K split into `num_strata` fixed strata, each with its own
/// derived seed, makes an estimate a *canonical function of (content, S)*:
/// the strata may run back-to-back on one thread or spread across a machine,
/// and the merged result is bit-identical either way, because no stratum's
/// randomness depends on which thread ran it or in what order. The budget is
/// split as evenly as possible (the first K mod S strata carry one extra
/// sample); the strata tile [0, K) contiguously, so slice-indexed estimators
/// (BFS Sharing's pre-sampled worlds) can map stratum -> world range.
/// @{

/// Seed of stratum `stratum` of an S-way stratified estimate. For S <= 1
/// this is `seed` itself — a 1-stratum estimate is bit-identical to the
/// legacy unstratified path — otherwise HashCombineSeed(seed, stratum), so
/// every stratum draws an independent stream derived only from the content
/// seed and its index.
uint64_t StratumSeed(uint64_t seed, uint32_t stratum, uint32_t num_strata);

/// Samples assigned to stratum `stratum` (0-based) of an S-way split of
/// `num_samples`. Sums to `num_samples` over all strata; `num_strata` == 0
/// is treated as 1.
uint32_t StratumSampleCount(uint32_t num_samples, uint32_t num_strata,
                            uint32_t stratum);

/// First sample index of stratum `stratum`: strata tile [0, num_samples)
/// contiguously in index order.
uint32_t StratumSampleOffset(uint32_t num_samples, uint32_t num_strata,
                             uint32_t stratum);
/// @}

/// The inversion step of a geometric variate, given a uniform `u` in (0, 1)
/// and `log1m_p` = log1p(-p): X = floor(log(u) / log1m_p), clamped to
/// [0, 9e18]. A NaN quotient reads as 9e18. RngState::GeometricFromLog1mP
/// computes every variate here; BitVector's geometric fill computes here
/// only the variates whose floor it cannot certify from a cheaper log (see
/// src/reliability/README.md, "Certified geometric variates").
inline uint64_t GeometricFromUniform(double u, double log1m_p) {
  // For q >= 0, truncation toward zero is floor, so the clamped q converts
  // with one signed truncation; 9e18 < 2^63 keeps it in range. The first
  // clamp also catches +inf and NaN, which must not reach the conversion.
  constexpr double kMax = 9.0e18;
  double q = std::log(u) / log1m_p;
  q = q < kMax ? q : kMax;
  q = q > 0.0 ? q : 0.0;
  return static_cast<uint64_t>(static_cast<int64_t>(q));
}

/// \brief The xoshiro256** generator as a plain value: its four state words
/// and the draws the sampling kernels make from them.
///
/// `Rng` steps through one of these, so the generator is written once. It is
/// trivially copyable so that a kernel can draw from a local copy
/// (ScopedRngState). A local whose address never escapes stays in registers.
/// The caller's `Rng`, reached through a reference, does not: a store through
/// a `uint8_t*` or `uint64_t*` may alias it, so the compiler reloads and
/// stores its state around every such store.
struct RngState {
  uint64_t s[4] = {};

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = std::rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = std::rotl(s[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial: true with probability p (clamped to [0, 1]). Draws
  /// one value iff p is in (0, 1) (or NaN): p <= 0 and p >= 1 decide
  /// without consuming randomness.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Inversion step of a geometric variate, given `log1m_p` = log1p(-p):
  /// GeometricFromUniform(U, log1m_p) for the first nonzero uniform U drawn
  /// (a zero draw is drawn again).
  uint64_t GeometricFromLog1mP(double log1m_p) {
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    return GeometricFromUniform(u, log1m_p);
  }
};

/// \brief A jump of the xoshiro256** state over a fixed number of draws.
///
/// Next() changes the state by XORs, shifts and rotations only, so the state
/// after n draws is a fixed GF(2)-linear map of the state before it: the XOR
/// of the images of its set bits. The constructor steps each of the 256 unit
/// states n times and folds the images into one table of 16 entries per
/// 4-bit digit of the state (64 digits, 32 KiB). Apply then XORs one entry
/// per digit instead of making n draws.
class RngJump {
 public:
  /// Builds the tables: 256 * `steps` draws.
  explicit RngJump(uint64_t steps);

  /// The jump over `steps` draws, built on first use and kept for the life
  /// of the process. Thread-safe.
  static const RngJump& ForSteps(uint64_t steps);

  /// Moves `state` to where the constructor's `steps` calls of Next() would
  /// leave it.
  void Apply(RngState& state) const {
    RngState out;
    const RngState* digit = table_.get();
    for (const uint64_t word : state.s) {
      uint64_t bits = word;
      for (int d = 0; d < 16; ++d, bits >>= 4, digit += 16) {
        const RngState& image = digit[bits & 15];
        for (int i = 0; i < 4; ++i) out.s[i] ^= image.s[i];
      }
    }
    state = out;
  }

 private:
  /// Entry 16 * d + v: the image of the state whose digit d is v and whose
  /// other digits are 0. Digit d is bits [4 (d % 16), +4) of word d / 16.
  std::unique_ptr<RngState[]> table_;
};

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// All stochastic components of the library draw from this class so that
/// every experiment is exactly reproducible from a 64-bit seed. The library
/// never touches std::random_device.
class Rng {
 public:
  /// Seeds the generator; two Rng instances with the same seed produce
  /// identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Reseed(seed); }

  /// Re-initializes the state from `seed` (SplitMix64 expansion).
  void Reseed(uint64_t seed);

  /// Next raw 64-bit value. Inline, like every draw RngState makes.
  uint64_t NextU64() { return state_.Next(); }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return state_.NextDouble(); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Bernoulli trial: true with probability p (clamped to [0, 1]). Draws
  /// one value iff p is in (0, 1) (or NaN): p <= 0 and p >= 1 decide
  /// without consuming randomness.
  bool Bernoulli(double p) { return state_.Bernoulli(p); }

  /// Number of failures before the first success of a Bernoulli(p) process
  /// (support {0, 1, 2, ...}). Precondition: 0 < p <= 1.
  ///
  /// This is the geometric variate used by Lazy Propagation sampling [30]:
  /// the value X means the edge stays absent for X probes and exists on
  /// probe X+1.
  uint64_t Geometric(double p);

  /// The inversion step of Geometric(p), given `log1m_p` = log1p(-p): X =
  /// floor(log(U) / log1m_p) for U in (0, 1), clamped to [0, 9e18]. Equal
  /// to Geometric(p) for p < 1, draw for draw; loops that draw many
  /// variates of one p compute log1p(-p) once and call this.
  uint64_t GeometricFromLog1mP(double log1m_p) {
    return state_.GeometricFromLog1mP(log1m_p);
  }

  /// Exponential variate with rate lambda. Precondition: lambda > 0.
  double Exponential(double lambda);

  /// Standard normal variate (Box–Muller; one fresh pair per two calls).
  double Normal();

  /// Derives an independent child generator; stream-splitting helper for
  /// per-query / per-repeat seeding.
  Rng Split();

 private:
  friend class ScopedRngState;

  RngState state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// \brief Draws from a local copy of an `Rng`'s state for the length of a
/// scope: the constructor copies the state out and the destructor writes it
/// back, so the `Rng` ends where the draws through state() left it, on every
/// exit, early returns included. The sampling kernels' hot loops draw
/// through one (see RngState). Do not use the `Rng` itself while one lives.
class ScopedRngState {
 public:
  explicit ScopedRngState(Rng& rng) : rng_(rng), state_(rng.state_) {}
  ~ScopedRngState() { rng_.state_ = state_; }
  ScopedRngState(const ScopedRngState&) = delete;
  ScopedRngState& operator=(const ScopedRngState&) = delete;

  RngState& state() { return state_; }

 private:
  Rng& rng_;
  RngState state_;
};

}  // namespace relcomp
