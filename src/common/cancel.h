#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "common/timer.h"

namespace relcomp {

/// \brief Cooperative cancellation handle: a deadline, an explicit cancel
/// flag, or both, optionally chained to a parent token.
///
/// The engine threads one of these through EstimateOptions so long-running
/// estimator cores (MC sample loops, BFS-Sharing world slices, the sweep
/// stratum scheduler) can poll it at their natural boundaries. Cancellation
/// is strictly *cooperative and all-or-nothing*: a cancelled call abandons
/// its work and returns kDeadlineExceeded / kCancelled — it never returns a
/// partial result, so completed calls are bit-identical whether or not a
/// token was attached (polling consumes no randomness).
///
/// Thread-safe: Cancel() may race with Cancelled() from any thread. The
/// token is non-owning with respect to its parent; the parent must outlive
/// every poll (the engine links a caller-supplied token under a per-query
/// stack token whose lifetime brackets the query).
class CancelToken {
 public:
  CancelToken() = default;

  /// A token that trips once StopwatchNs::Now() passes `deadline`
  /// (absolute steady-clock nanoseconds; 0 = no deadline), and whenever
  /// `parent` (optional, not owned) is cancelled.
  explicit CancelToken(uint64_t deadline, const CancelToken* parent = nullptr)
      : deadline_(deadline), parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the explicit cancel flag. Idempotent; callable from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once the flag is tripped, the deadline has passed, or the parent
  /// token is cancelled. The poll estimator cores place in their loops.
  bool Cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_ != 0 && StopwatchNs::Now() >= deadline_) return true;
    return parent_ != nullptr && parent_->Cancelled();
  }

  /// The Status a cancelled call reports: kDeadlineExceeded when the
  /// deadline tripped first, kCancelled for an explicit Cancel (directly or
  /// through the parent chain). Meaningful only once Cancelled() is true.
  Status ToStatus() const {
    if (deadline_ != 0 && StopwatchNs::Now() >= deadline_ &&
        !cancelled_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled by caller");
    }
    if (parent_ != nullptr && parent_->Cancelled()) {
      return parent_->ToStatus();
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  }

 private:
  std::atomic<bool> cancelled_{false};
  const uint64_t deadline_ = 0;
  const CancelToken* const parent_ = nullptr;
};

}  // namespace relcomp
