#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace relcomp {

/// Injection sites the harness can trip. Each site models one concrete
/// production failure the engine must degrade through, at the layer where
/// that failure would really originate.
enum class FaultSite : uint32_t {
  /// An estimator call (stratum, whole sweep, or scalar estimate) fails
  /// with an injected kInternal error at its entry — before any randomness
  /// is consumed, so non-injected calls are bit-identical to a fault-free
  /// run.
  kEstimatorFailure = 0,
  /// An estimator call is delayed by FaultPlan::latency_us before running
  /// normally. Pure latency: the answer is untouched.
  kInducedLatency,
  /// A cache insertion (ResultCache or SweepCache) is dropped as if the
  /// allocation failed. Semantically invisible by the cache contract — the
  /// next miss recomputes the identical answer.
  kAllocFailure,
  /// \name File-I/O sites (the persistence tier's crash matrix)
  /// These three are keyed by FileOpKey(path, offset/ordinal) — derived from
  /// file *content identity* (basename + position), never from temp-dir
  /// names, thread ids, or wall clock — so the injected set is identical
  /// across runs and thread counts.
  /// @{
  /// A file write persists only a prefix of the requested bytes and the
  /// operation aborts where it stands (a torn tmp file) — the shape a real
  /// partial write + crash leaves behind.
  kFileShortWrite,
  /// fsync reports failure; the publishing protocol must abort *before*
  /// rename so the previous snapshot stays the live one.
  kFsyncFailure,
  /// A SIGKILL-style crash point: the file operation abandons everything
  /// exactly where it is (no cleanup, no unlink, no rename). Tests enumerate
  /// these via FaultPlan::crash_point_select to kill a publish at every
  /// step and prove reopen recovers.
  kCrashPoint,
  /// @}
};

inline constexpr size_t kNumFaultSites = 6;

/// Short site name ("estimator_failure", "induced_latency", ...).
const char* FaultSiteName(FaultSite site);

/// Content-derived key for a file-I/O fault probe: hashes the basename of
/// `path` (temp-dir prefixes must not change the injected set) with the
/// operation's offset or ordinal. Deterministic across runs, machines, and
/// thread counts.
uint64_t FileOpKey(std::string_view path, uint64_t ordinal);

/// One deterministic injection campaign: per-site probabilities plus the
/// seed every injection decision derives from.
struct FaultPlan {
  uint64_t seed = 0;
  /// Per-site injection probability in [0, 1] (index = FaultSite).
  double probability[kNumFaultSites] = {};
  /// Delay injected at kInducedLatency sites, in microseconds.
  uint32_t latency_us = 100;
  /// Deterministic crash-point enumeration: when >= 0, the kCrashPoint site
  /// ignores its probability and trips exactly on the select-th probe since
  /// Configure (probes are counted process-wide). A snapshot publish probes
  /// its crash points single-threaded in a fixed order, so looping select
  /// = 0, 1, 2, ... kills a publish at every distinct step; an
  /// iteration that completes with zero injections proves the enumeration
  /// is exhausted. -1 (the default) uses the probability path.
  int64_t crash_point_select = -1;
};

/// \brief Process-wide deterministic fault injector — compiled in, inert by
/// default.
///
/// Every injection decision is a pure function of (plan seed, site, caller
/// key): ShouldInject hashes the three and compares against the site's
/// probability threshold. Callers pass *content-derived* keys (the engine
/// uses query seeds and per-stratum seeds), so the set of injected
/// operations is identical at 1, 2, or 8 threads — which is what lets the
/// chaos suite assert that all successful answers under injection are
/// bit-identical to the fault-free run.
///
/// Disabled (the default), the hot-path cost is one relaxed atomic load per
/// site probe. Configure/Disable are test-harness entry points, not
/// serving-path API; they must not race active probes' plan reads in
/// production code (the chaos suite configures before building each engine
/// and disables after tearing it down).
class FaultInjector {
 public:
  /// The process-wide injector every instrumented site consults.
  static FaultInjector& Global();

  /// Installs `plan` and arms the injector. Resets the per-site counters.
  void Configure(const FaultPlan& plan);

  /// Disarms the injector (probes return false at one atomic load again).
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Deterministic injection decision for (site, key); counts a hit in
  /// injected(site). False whenever the injector is disabled.
  bool ShouldInject(FaultSite site, uint64_t key);

  /// ShouldInject wrapped as a Status: an injected kInternal error naming
  /// the site and `what`, or OK.
  Status MaybeFail(FaultSite site, uint64_t key, const char* what);

  /// Sleeps FaultPlan::latency_us when the kInducedLatency site trips for
  /// `key`. Never changes results — only their timing.
  void MaybeDelay(uint64_t key);

  /// Injections performed at `site` since the last Configure.
  uint64_t injected(FaultSite site) const {
    return injected_[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
  }

  /// Total injections across all sites since the last Configure.
  uint64_t total_injected() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> enabled_{false};
  FaultPlan plan_;
  std::atomic<uint64_t> injected_[kNumFaultSites] = {};
  /// kCrashPoint probes seen since Configure (crash_point_select mode).
  std::atomic<uint64_t> crash_probes_{0};
};

}  // namespace relcomp
