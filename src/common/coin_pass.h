#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/rng.h"

namespace relcomp {

/// \brief The coin pass of a world fill: per-bit Bernoulli fills that a
/// serial pass deferred, filled in blocks by the thread that runs the fill
/// and by any number of helpers.
///
/// A fill of `num_bits` coins (BitVector::FillDrawsEveryBit) draws exactly
/// `num_bits` values, so the serial pass over a generator stream can record
/// the state such a fill starts from, jump the state past it (RngJump) and
/// go on; the coins are tossed later, from the recorded state, by whoever
/// claims the fill's block. The words are the same whoever fills them. A
/// block's fills are tossed four at a time (BitVector::FillCoinWords4), and
/// the pass's last one to three one at a time.
///
/// The owner (the fill's thread) calls Begin, then Defer for each fill in
/// stream order, then Finish. Defer publishes a block each time one is full.
/// Finish publishes the rest, closes the pass, fills every block nobody
/// claimed, and returns once every block is filled: after it, the owner may
/// read all the words and free them. Any other thread may call Help at any
/// time, before Begin included: it claims blocks in order, waits for each to
/// be published, and returns once the pass is closed and nothing is left to
/// claim. A helper must keep the pass alive until Help returns (the
/// engine's HelperPool shares it through a shared_ptr). One pass serves
/// one fill.
class CoinPass {
 public:
  CoinPass() = default;
  CoinPass(const CoinPass&) = delete;
  CoinPass& operator=(const CoinPass&) = delete;

  /// Owner: starts a pass of `num_fills` fills of `num_bits` bits each.
  void Begin(size_t num_fills, size_t num_bits);

  /// Owner: defers the fill of `words` with Bernoulli(p) coins drawn from
  /// `start`. Precondition: BitVector::FillDrawsEveryBit(p), and fewer than
  /// `num_fills` fills deferred so far.
  void Defer(uint64_t* words, double p, const RngState& start) {
    fills_[deferred_] = {start, p, words};
    if (++deferred_ % fills_per_block_ == 0) Publish(deferred_, false);
  }

  /// Owner: publishes the rest, closes the pass, helps fill it, and waits
  /// for the helpers' blocks. Precondition: all `num_fills` fills deferred.
  void Finish();

  /// Closes the pass without publishing more: a Help waiting on it returns.
  /// A no-op once the pass is closed. For an owner that never Begins (a
  /// build that fails first, or one with no coin pass).
  void Close();

  /// Fills blocks until the pass is closed and every block is claimed (see
  /// the class comment). Returns the number of fills this call filled.
  size_t Help();

 private:
  friend class CoinPassTestPeer;  // sees a helper claim its first block

  struct Fill {
    RngState start;
    double p = 0.0;
    uint64_t* words = nullptr;
  };

  /// Publishes the first `count` fills, and closes the pass if `close`.
  void Publish(size_t count, bool close);

  std::unique_ptr<Fill[]> fills_;
  size_t num_fills_ = 0;
  size_t num_bits_ = 0;
  size_t fills_per_block_ = 1;
  size_t deferred_ = 0;  ///< owner only

  /// (published fills << 1) | closed: the one word helpers wait on. Closing
  /// always changes it, so a waiter wakes even when the last publish adds no
  /// fill (no fill at all, or a count that ends a block).
  std::atomic<uint64_t> published_{0};
  /// Blocks claimed so far, by the owner and the helpers.
  std::atomic<size_t> next_block_{0};
  /// Fills filled so far; the owner waits for it to reach num_fills_.
  std::atomic<size_t> filled_{0};
};

}  // namespace relcomp
