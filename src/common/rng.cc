#include "common/rng.h"

#include <cmath>
#include <map>
#include <mutex>

namespace relcomp {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashCombineSeed(uint64_t seed, uint64_t value) {
  // Weyl-step the value into the state so that (seed, 0) and (seed ^ 1, 1)
  // style near-collisions still separate, then finalize with SplitMix64.
  uint64_t state = seed ^ (value * 0xD1B54A32D192ED03ULL + 0x9E3779B97F4A7C15ULL);
  return SplitMix64(state);
}

uint64_t StratumSeed(uint64_t seed, uint32_t stratum, uint32_t num_strata) {
  if (num_strata <= 1) return seed;
  return HashCombineSeed(seed, stratum);
}

uint32_t StratumSampleCount(uint32_t num_samples, uint32_t num_strata,
                            uint32_t stratum) {
  if (num_strata <= 1) return num_samples;
  const uint32_t base = num_samples / num_strata;
  return base + (stratum < num_samples % num_strata ? 1 : 0);
}

uint32_t StratumSampleOffset(uint32_t num_samples, uint32_t num_strata,
                             uint32_t stratum) {
  if (num_strata <= 1) return 0;
  const uint32_t base = num_samples / num_strata;
  const uint32_t extra = num_samples % num_strata;
  return stratum * base + (stratum < extra ? stratum : extra);
}

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_.s) word = SplitMix64(sm);
  has_cached_normal_ = false;
}

uint64_t Rng::UniformInt(uint64_t n) {
  // Lemire's nearly-divisionless bounded integers with rejection.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t threshold = (0 - n) % n;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

uint64_t Rng::Geometric(double p) {
  if (p >= 1.0) return 0;
  return GeometricFromLog1mP(std::log1p(-p));
}

double Rng::Exponential(double lambda) {
  double u = NextDouble();
  while (u <= 0.0) u = NextDouble();
  return -std::log(u) / lambda;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

RngJump::RngJump(uint64_t steps) : table_(new RngState[64 * 16]) {
  for (int d = 0; d < 64; ++d) {
    RngState* digit = table_.get() + 16 * d;
    // Images of the digit's four unit states, then every other value of the
    // digit as the XOR of the image of its lowest set bit and of the rest.
    for (int b = 0; b < 4; ++b) {
      RngState unit;
      unit.s[d / 16] = uint64_t{1} << (4 * (d % 16) + b);
      for (uint64_t i = 0; i < steps; ++i) unit.Next();
      digit[1 << b] = unit;
    }
    for (int v = 3; v < 16; ++v) {
      if ((v & (v - 1)) == 0) continue;
      const RngState& low = digit[v & -v];
      const RngState& rest = digit[v & (v - 1)];
      for (int i = 0; i < 4; ++i) digit[v].s[i] = low.s[i] ^ rest.s[i];
    }
  }
}

const RngJump& RngJump::ForSteps(uint64_t steps) {
  static std::mutex mutex;
  static std::map<uint64_t, std::unique_ptr<const RngJump>> jumps;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<const RngJump>& jump = jumps[steps];
  if (jump == nullptr) jump = std::make_unique<const RngJump>(steps);
  return *jump;
}

Rng Rng::Split() { return Rng(NextU64() ^ 0xD6E8FEB86659FD93ULL); }

}  // namespace relcomp
