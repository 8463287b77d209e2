#pragma once

#include <chrono>
#include <cstdint>

namespace relcomp {

/// \brief Monotonic nanosecond stopwatch — the single steady-clock path all
/// engine telemetry goes through.
///
/// Now() is an absolute steady-clock reading in nanoseconds (epoch is the
/// clock's, not the Unix epoch), so timestamps taken on different threads are
/// directly comparable: the thread pool stamps enqueue times with it, trace
/// spans record begin/end with it, and query deadlines are stored as plain
/// uint64 nanoseconds instead of chrono time_points.
class StopwatchNs {
 public:
  StopwatchNs() : start_ns_(Now()) {}

  /// Absolute steady-clock nanoseconds (monotonic across threads).
  static uint64_t Now() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Resets the epoch to now.
  void Restart() { start_ns_ = Now(); }

  /// Nanoseconds elapsed since construction / last Restart().
  uint64_t ElapsedNs() const { return Now() - start_ns_; }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNs()) * 1e-9;
  }

 private:
  uint64_t start_ns_;
};

/// Absolute StopwatchNs deadline `seconds` after `start_ns`, or 0 — never —
/// when `seconds` is not positive, is NaN or infinite, or puts the deadline
/// past the clock's range. Every seconds-to-deadline conversion goes through
/// here: a bare `static_cast<uint64_t>(seconds * 1e9)` is undefined from
/// about 1.8e10 s up, and in practice yields a deadline already passed.
inline uint64_t DeadlineAfter(uint64_t start_ns, double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ns = seconds * 1e9;
  if (!(ns < 0x1p64)) return 0;
  const uint64_t delta = static_cast<uint64_t>(ns);
  return delta >= ~start_ns ? 0 : start_ns + delta;
}

/// \brief Monotonic wall-clock stopwatch used by all experiment code.
/// A seconds-facing view over the same steady clock as StopwatchNs.
class Timer {
 public:
  Timer() = default;

  /// Resets the epoch to now.
  void Restart() { stopwatch_.Restart(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const { return stopwatch_.ElapsedSeconds(); }

  /// Milliseconds elapsed since construction / last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  StopwatchNs stopwatch_;
};

}  // namespace relcomp
