#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace relcomp {

class Rng;
struct RngState;

/// \name Word-level bit primitives
/// Builtin-backed (std::popcount / BMI2 PDEP where available) with portable
/// fallbacks. These are the shared building blocks of BitVector's word loops
/// and the rank/select directories in common/rank_select.h; keeping them in
/// one place lets tests oracle-check them once against naive bit loops.
/// @{

/// Number of set bits in `word`.
inline uint32_t Popcount(uint64_t word) {
  return static_cast<uint32_t>(std::popcount(word));
}

/// Number of set bits among the `i` lowest bits of `word`; i in [0, 64].
inline uint32_t Rank64(uint64_t word, uint32_t i) {
  if (i >= 64) return Popcount(word);
  return Popcount(word & ((uint64_t{1} << i) - 1));
}

/// Bit position of the k-th set bit of `word` (k is 1-based; requires
/// 1 <= k <= Popcount(word)).
inline uint32_t Select64(uint64_t word, uint32_t k) {
#if defined(__BMI2__)
  return static_cast<uint32_t>(
      std::countr_zero(_pdep_u64(uint64_t{1} << (k - 1), word)));
#else
  // Portable fallback: narrow to the byte holding the k-th one, then peel
  // the lower ones off that byte.
  uint32_t base = 0;
  for (;;) {
    const uint32_t byte_ones = Popcount(word & 0xFF);
    if (k <= byte_ones) break;
    k -= byte_ones;
    word >>= 8;
    base += 8;
  }
  uint64_t byte = word & 0xFF;
  while (--k > 0) byte &= byte - 1;  // clear the k-1 lowest ones
  return base + static_cast<uint32_t>(std::countr_zero(byte));
#endif
}

/// Word `word_index` of the shifted sequence (words >> bit_offset), with
/// words at or past `num_words` reading as zero; bit_offset in [0, 64). The
/// stitched-slice read of the rank/select directories and of BFS Sharing's
/// world slices that start inside a word of the packed edge blocks.
inline uint64_t SliceWord64(const uint64_t* words, size_t num_words,
                            size_t word_index, uint32_t bit_offset) {
  if (word_index >= num_words) return 0;
  uint64_t slice = words[word_index] >> bit_offset;
  if (bit_offset != 0 && word_index + 1 < num_words) {
    slice |= words[word_index + 1] << (64 - bit_offset);
  }
  return slice;
}

/// @}

/// \brief Fixed-size bit vector, and the world fills of the BFS Sharing
/// estimator [45].
///
/// Each edge of the BFS Sharing index carries L bits (bit i = "edge exists
/// in pre-sampled possible world i"), or the first words of them, written by
/// FillBernoulliWords into the index's packed edge blocks.
class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `num_bits` bits, all zero.
  explicit BitVector(size_t num_bits);

  /// Number of addressable bits.
  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Resizes to `num_bits`; newly added bits are zero.
  void Resize(size_t num_bits);

  void Set(size_t i);
  void Clear(size_t i);
  bool Get(size_t i) const;

  /// Sets every bit to one / zero.
  void SetAll();
  void ClearAll();

  /// Population count (number of set bits).
  size_t Count() const;

  /// Fills each bit with an independent Bernoulli(p) draw (index sampling):
  /// FillBernoulliWords over this vector's words.
  void FillBernoulli(double p, Rng& rng);

  /// Writes `num_bits` independent Bernoulli(p) draws into `words`, which
  /// must span at least ceil(num_bits / 64) words; the tail of the last
  /// word is zeroed. The words written and the RNG position afterwards
  /// equal those of this reference loop, which is the sampler's
  /// determinism contract (BFS Sharing worlds depend on it):
  ///
  ///   clear all words;
  ///   if (num_bits > 0 && 0 < p && p < 0.25) {       // geometric skipping
  ///     for (i = rng.Geometric(p); i < num_bits; i += 1 + rng.Geometric(p))
  ///       set bit i;
  ///   } else {                                        // one coin per bit
  ///     for (i = 0; i < num_bits; ++i) if (rng.Bernoulli(p)) set bit i;
  ///   }
  ///
  /// So p <= 0 and p >= 1 draw nothing, NaN draws num_bits coins and sets
  /// none, and the 0.25 cut-off fixes how many draws each edge consumes.
  /// The loop itself never branches on a coin (see
  /// src/reliability/README.md, "BFS Sharing world sampling"). Nor does the
  /// geometric path pay a `log` per variate: it draws 8 uniforms at a time
  /// and takes each variate's floor from a table log where that floor is
  /// certified to be the reference's, and from the reference's own
  /// GeometricFromUniform in the rare block where it is not; it leaves the
  /// state after the last draw the reference would make ("Certified
  /// geometric variates" in the same README).
  static void FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                 Rng& rng);

  /// The same fill, drawing from `state`.
  static void FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                 RngState& state);

  /// The same fill, storing only its first `stored_words` words (all of
  /// them when stored_words >= ceil(num_bits / 64)): they equal the first
  /// words of the whole fill, and `state` ends where the whole fill leaves
  /// it. A coin fill tosses min(64 * stored_words, num_bits) coins, whose
  /// last word's tail is zeroed only when that is num_bits, and then steps
  /// the state over the rest of its num_bits draws. A geometric fill draws
  /// every variate until its position passes num_bits, and sets only the
  /// bits below 64 * stored_words. BFS Sharing generations narrowed to a
  /// query budget are filled this way (src/reliability/README.md,
  /// "Generations as wide as the engine's budget").
  static void FillBernoulliWords(uint64_t* words, size_t num_bits,
                                 size_t stored_words, double p,
                                 RngState& state);

  /// True when FillBernoulliWords draws exactly one value per bit, so that
  /// its draw count is num_bits whatever the draws are: 0.25 <= p < 1, and
  /// NaN.
  static bool FillDrawsEveryBit(double p) { return !(p < 0.25 || p >= 1.0); }

  /// Four coin fills at once: the same words (tail zeroed) and final states
  /// as FillBernoulliWords(words[i], num_bits, p[i], states[i]) for i = 0..3.
  /// Precondition: FillDrawsEveryBit(p[i]) for every i. On a host with AVX2
  /// the four streams run in the lanes of one vector (see
  /// src/reliability/README.md, "Four coin edges at a time"); elsewhere this
  /// is those four calls.
  static void FillCoinWords4(uint64_t* const words[4], size_t num_bits,
                             const double p[4], RngState states[4]);

  /// True when FillCoinWords4 runs on AVX2 on this host.
  static bool FillCoinWords4UsesAvx2();

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// Logical memory footprint in bytes (used by MemoryTracker accounting).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word access (read-only), for serialization.
  const std::vector<uint64_t>& words() const { return words_; }
  /// Mutable word access, for deserialization. Caller keeps num_bits valid.
  std::vector<uint64_t>& mutable_words() { return words_; }

 private:
  /// Zeroes the unused high bits of the last word so Count()/== stay exact.
  void MaskTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace relcomp
