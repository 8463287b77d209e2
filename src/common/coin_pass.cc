#include "common/coin_pass.h"

#include <algorithm>

#include "common/bitvector.h"

namespace relcomp {

namespace {
/// About this many coins per block: about 16 us of tossing with the
/// four-lane fill at ~1 ns per coin (about 45 us one edge at a time), so
/// claiming a block costs little next to filling it, and a helper can start
/// while the serial pass is still early in the stream.
constexpr size_t kCoinsPerBlock = 16384;
}  // namespace

void CoinPass::Begin(size_t num_fills, size_t num_bits) {
  fills_ = std::make_unique<Fill[]>(num_fills);
  num_fills_ = num_fills;
  num_bits_ = num_bits;
  // A multiple of 4, so that only the pass's last block has fills left over
  // from the four-lane fill.
  const size_t fills =
      std::max<size_t>(1, kCoinsPerBlock / std::max<size_t>(1, num_bits));
  fills_per_block_ = (fills + 3) / 4 * 4;
  deferred_ = 0;
}

void CoinPass::Publish(size_t count, bool close) {
  published_.store((static_cast<uint64_t>(count) << 1) | (close ? 1 : 0),
                   std::memory_order_release);
  published_.notify_all();
}

void CoinPass::Finish() {
  Publish(deferred_, true);
  Help();
  // A helper's block is written once it adds its count here (release), so
  // every word is the owner's to read once the count is complete.
  for (size_t done = filled_.load(std::memory_order_acquire);
       done != num_fills_; done = filled_.load(std::memory_order_acquire)) {
    filled_.wait(done, std::memory_order_acquire);
  }
}

void CoinPass::Close() {
  published_.fetch_or(1, std::memory_order_acq_rel);
  published_.notify_all();
}

size_t CoinPass::Help() {
  size_t filled = 0;
  for (;;) {
    const size_t block = next_block_.fetch_add(1, std::memory_order_relaxed);
    size_t first = 0;
    size_t end = 0;
    // Wait until the block is published, or the pass closes before it. The
    // block geometry is read only after a publish or a close, which happen
    // after Begin.
    for (uint64_t word = published_.load(std::memory_order_acquire);;
         word = published_.load(std::memory_order_acquire)) {
      if (word != 0) {
        const size_t count = static_cast<size_t>(word >> 1);
        const bool closed = (word & 1) != 0;
        first = block * fills_per_block_;
        end = std::min(first + fills_per_block_, count);
        if (end == first + fills_per_block_ || (closed && first < count)) {
          break;
        }
        if (closed) return filled;
      }
      published_.wait(word, std::memory_order_acquire);
    }
    size_t i = first;
    for (; i + 4 <= end; i += 4) {
      uint64_t* words[4];
      double p[4];
      RngState states[4];
      for (size_t lane = 0; lane < 4; ++lane) {
        words[lane] = fills_[i + lane].words;
        p[lane] = fills_[i + lane].p;
        states[lane] = fills_[i + lane].start;
      }
      BitVector::FillCoinWords4(words, num_bits_, p, states);
    }
    for (; i < end; ++i) {
      RngState state = fills_[i].start;
      BitVector::FillBernoulliWords(fills_[i].words, num_bits_, fills_[i].p,
                                    state);
    }
    filled_.fetch_add(end - first, std::memory_order_release);
    filled_.notify_all();
    filled += end - first;
  }
}

}  // namespace relcomp
