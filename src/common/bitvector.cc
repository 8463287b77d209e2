#include "common/bitvector.h"

#include <algorithm>
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

bool BitVector::OrWith(const BitVector& other) {
  bool changed = false;
  for (size_t i = 0; i < words_.size(); ++i) {
    const uint64_t next = words_[i] | other.words_[i];
    changed |= (next != words_[i]);
    words_[i] = next;
  }
  return changed;
}

bool BitVector::OrWithAnd(const BitVector& a, const BitVector& b) {
  bool changed = false;
  const size_t n = words_.size();
  const size_t rem = num_bits_ % kWordBits;
  const uint64_t tail_mask = rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  for (size_t i = 0; i < n; ++i) {
    uint64_t add = a.words_[i] & b.words_[i];
    if (i + 1 == n) add &= tail_mask;
    const uint64_t next = words_[i] | add;
    changed |= (next != words_[i]);
    words_[i] = next;
  }
  return changed;
}

bool BitVector::OrWithAndOffset(const BitVector& a, const BitVector& b,
                                size_t b_offset) {
  return OrWithAndWords(a, b.words_.data(), b.words_.size(), b_offset);
}

bool BitVector::OrWithAndWords(const BitVector& a, const uint64_t* b_words,
                               size_t b_num_words, size_t b_offset) {
  bool changed = false;
  const size_t n = words_.size();
  const size_t rem = num_bits_ % kWordBits;
  const uint64_t tail_mask = rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  const size_t word_offset = b_offset / kWordBits;
  const uint32_t bit_offset = static_cast<uint32_t>(b_offset % kWordBits);
  if (bit_offset == 0) {
    // Word-aligned (b_offset == 0 is the plain OrWithAnd): no stitching.
    for (size_t i = 0; i < n; ++i) {
      const size_t lo = i + word_offset;
      uint64_t add = a.words_[i] & (lo < b_num_words ? b_words[lo] : 0);
      if (i + 1 == n) add &= tail_mask;
      const uint64_t next = words_[i] | add;
      changed |= (next != words_[i]);
      words_[i] = next;
    }
    return changed;
  }
  for (size_t i = 0; i < n; ++i) {
    // Word i of (b >> b_offset), stitched across the word boundary; words
    // past b's end read as zero.
    uint64_t add = a.words_[i] &
                   SliceWord64(b_words, b_num_words, i + word_offset, bit_offset);
    if (i + 1 == n) add &= tail_mask;
    const uint64_t next = words_[i] | add;
    changed |= (next != words_[i]);
    words_[i] = next;
  }
  return changed;
}

bool BitVector::WouldGainFromAnd(const BitVector& a, const BitVector& b) const {
  const size_t n = words_.size();
  const size_t rem = num_bits_ % kWordBits;
  const uint64_t tail_mask = rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  for (size_t i = 0; i < n; ++i) {
    uint64_t add = a.words_[i] & b.words_[i];
    if (i + 1 == n) add &= tail_mask;
    if (add & ~words_[i]) return true;
  }
  return false;
}

void BitVector::FillBernoulli(double p, Rng& rng) {
  FillBernoulliWords(words_.data(), num_bits_, p, rng);
}

namespace {

/// FillBernoulliWords' body. The draws go through `state`, a by-value copy
/// of the caller's generator state, which is returned: a word store may
/// alias the caller's state, so drawing through it would reload and store
/// the state around every store.
RngState FillWords(uint64_t* words, size_t num_bits, double p,
                   RngState state) {
  const size_t num_words = WordsFor(num_bits);
  const size_t rem = num_bits % kWordBits;
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
    const double log1m_p = std::log1p(-p);
    for (size_t i = state.GeometricFromLog1mP(log1m_p); i < num_bits;
         i += 1 + state.GeometricFromLog1mP(log1m_p)) {
      words[i / kWordBits] |= 1ULL << (i % kWordBits);
    }
    return state;
  }
  // One coin per bit, compared as integers: NextDouble() < p iff
  // (x >> 11) < ceil(p * 2^53), since p * 2^53 is exact. NaN keeps
  // threshold 0: it draws every coin and sets none, like Rng::Bernoulli.
  const uint64_t threshold =
      std::isnan(p) ? 0 : static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
  auto coins = [&](size_t count) {
    uint64_t word = 0;
    for (size_t b = 0; b < count; ++b) {
      word |= static_cast<uint64_t>((state.Next() >> 11) < threshold) << b;
    }
    return word;
  };
  const size_t full_words = num_bits / kWordBits;
  for (size_t w = 0; w < full_words; ++w) words[w] = coins(kWordBits);
  if (rem != 0) words[full_words] = coins(rem);
  return state;
}

}  // namespace

void BitVector::FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                   Rng& rng) {
  ScopedRngState local(rng);
  FillBernoulliWords(words, num_bits, p, local.state());
}

void BitVector::FillBernoulliWords(uint64_t* words, size_t num_bits, double p,
                                   RngState& state) {
  state = FillWords(words, num_bits, p, state);
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
