#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

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

  /// Next raw 64-bit value. Inline (like NextDouble and Bernoulli): the
  /// sampling kernels draw once per visited edge.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Bernoulli trial: true with probability p (clamped to [0, 1]). Draws
  /// one value iff p is in (0, 1) (or NaN): p <= 0 and p >= 1 decide
  /// without consuming randomness.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

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
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    double x = std::floor(std::log(u) / log1m_p);
    if (x < 0.0) x = 0.0;
    constexpr double kMax = 9.0e18;
    if (x > kMax) x = kMax;
    return static_cast<uint64_t>(x);
  }

  /// Exponential variate with rate lambda. Precondition: lambda > 0.
  double Exponential(double lambda);

  /// Standard normal variate (Box–Muller; one fresh pair per two calls).
  double Normal();

  /// Derives an independent child generator; stream-splitting helper for
  /// per-query / per-repeat seeding.
  Rng Split();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace relcomp
