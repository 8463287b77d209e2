#include "common/fault_injection.h"

#include <chrono>
#include <thread>

#include "common/format.h"
#include "common/rng.h"

namespace relcomp {

namespace {
/// Domain separator so a fault decision can never alias an estimator's own
/// use of the same content key.
constexpr uint64_t kFaultSeedTag = 0x666c74ULL;  // "flt"
}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kEstimatorFailure:
      return "estimator_failure";
    case FaultSite::kInducedLatency:
      return "induced_latency";
    case FaultSite::kAllocFailure:
      return "alloc_failure";
    case FaultSite::kFileShortWrite:
      return "file_short_write";
    case FaultSite::kFsyncFailure:
      return "fsync_failure";
    case FaultSite::kCrashPoint:
      return "crash_point";
  }
  return "unknown";
}

uint64_t FileOpKey(std::string_view path, uint64_t ordinal) {
  // Basename only: "/tmp/testXYZ/snapshot.relsnap" and a rerun's
  // "/tmp/testABC/snapshot.relsnap" must produce the same injected set.
  const size_t slash = path.find_last_of('/');
  const std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  uint64_t h = 0x66696c65ULL;  // "file"
  for (const char c : base) {
    h = HashCombineSeed(h, static_cast<uint8_t>(c));
  }
  return HashCombineSeed(h, ordinal);
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Configure(const FaultPlan& plan) {
  // Order matters against concurrent probes: install the plan first, then
  // arm. (The chaos harness configures between engine lifetimes anyway; this
  // just keeps a racing probe from reading a half-armed injector.)
  enabled_.store(false, std::memory_order_relaxed);
  plan_ = plan;
  for (std::atomic<uint64_t>& count : injected_) {
    count.store(0, std::memory_order_relaxed);
  }
  crash_probes_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::ShouldInject(FaultSite site, uint64_t key) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  if (site == FaultSite::kCrashPoint && plan_.crash_point_select >= 0) {
    // Enumeration mode: trip exactly the select-th probe. Persist operations
    // probe single-threaded in a fixed order, so the counter is as
    // deterministic as the content keys.
    const uint64_t n = crash_probes_.fetch_add(1, std::memory_order_relaxed);
    if (n != static_cast<uint64_t>(plan_.crash_point_select)) return false;
    injected_[static_cast<size_t>(site)].fetch_add(1,
                                                   std::memory_order_relaxed);
    return true;
  }
  const double probability = plan_.probability[static_cast<size_t>(site)];
  if (probability <= 0.0) return false;
  // hash(plan seed, site, key) -> uniform in [0, 1): pure content function,
  // independent of thread count, call order, and wall clock.
  uint64_t h = HashCombineSeed(plan_.seed, kFaultSeedTag);
  h = HashCombineSeed(h, static_cast<uint64_t>(site));
  h = HashCombineSeed(h, key);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  if (u >= probability) return false;
  injected_[static_cast<size_t>(site)].fetch_add(1,
                                                 std::memory_order_relaxed);
  return true;
}

Status FaultInjector::MaybeFail(FaultSite site, uint64_t key,
                                const char* what) {
  if (!ShouldInject(site, key)) return Status::OK();
  return Status::Internal(
      StrFormat("injected fault (%s) in %s", FaultSiteName(site), what));
}

void FaultInjector::MaybeDelay(uint64_t key) {
  if (!ShouldInject(FaultSite::kInducedLatency, key)) return;
  std::this_thread::sleep_for(std::chrono::microseconds(plan_.latency_us));
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const std::atomic<uint64_t>& count : injected_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace relcomp
