#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Thread-safe recorder of per-query outcomes into the metrics
/// registry.
///
/// Every Record* call lands in a named registry instrument (see
/// src/obs/README.md for the list), so one MetricsRegistry::ExportJson()
/// scrape is the engine's whole account; nothing is kept beside it. Latency
/// quantiles come from bounded log-bucketed histograms (<= 1/16 relative
/// error, extremes exact): recording is lock-free and O(1), and long-running
/// servers never grow per-query state.
class EngineStats {
 public:
  /// Records into `registry` (not owned; must outlive this object).
  explicit EngineStats(obs::MetricsRegistry& registry);

  /// Records one estimator-executed query: its latency and working-set peak.
  void RecordExecuted(double seconds, size_t peak_memory_bytes);

  /// Records one query served from the result cache (zero marginal latency).
  void RecordCacheHit();

  /// Records one query that shared an in-flight twin's computation;
  /// `wait_seconds` is the time spent waiting for the leader.
  void RecordCoalesced(double wait_seconds);

  /// Records one query that finished with a non-OK per-query status.
  void RecordFailure(double seconds);

  /// Records one query that failed because its deadline elapsed or its
  /// CancelToken fired (called alongside RecordFailure).
  void RecordDeadlineExceeded();

  /// Classifies how one executed sweep-kind query obtained its per-source
  /// vector (called alongside RecordExecuted, at most once per query).
  void RecordSweepExecuted();
  void RecordSweepHit();
  void RecordSweepCoalesced();

  /// Records one executed stratum of a work-list (an s-t estimate's or a
  /// sweep flight's); `stolen` when a sweep's coalesced waiter ran it
  /// instead of blocking, `helper` when a helper thread ran it (never both).
  void RecordStratum(bool stolen, bool helper);

  /// Records one executed sweep's wall-clock (leader start to publish), the
  /// sample behind the per-sweep latency quantiles.
  void RecordSweepLatency(double seconds);

  /// Counts one query against its workload kind (called once per query, on
  /// top of exactly one of the Record* outcomes above).
  void RecordWorkload(WorkloadKind kind);

  /// Adds batch wall-clock time to the throughput denominator.
  void AddWallTime(double seconds);

  /// Marks the start / end of one engine call (batch or stream cycle) for
  /// true-span tracking: engine_span_seconds = first MarkCallStart to last
  /// MarkCallEnd. The gauge only grows between resets, whatever order
  /// concurrent calls finish in.
  void MarkCallStart();
  void MarkCallEnd();

  /// Resets the instruments this recorder owns (queries, latencies, wall
  /// time, span). Instruments registered by other components sharing the
  /// registry — cache counters are monotonic by contract — are untouched.
  void Reset();

 private:
  static constexpr uint64_t kNoStamp = ~uint64_t{0};

  obs::Histogram* query_latency_ns_;
  obs::Histogram* sweep_latency_ns_;
  obs::Counter* executed_;
  obs::Counter* coalesced_;
  obs::Counter* failures_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* workload_queries_[kNumWorkloadKinds];
  obs::Counter* sweep_executed_;
  obs::Counter* sweep_hits_;
  obs::Counter* sweep_coalesced_;
  obs::Counter* strata_executed_;
  obs::Counter* strata_stolen_;
  obs::Counter* strata_helped_;
  obs::Gauge* wall_seconds_;
  obs::Gauge* span_seconds_;
  obs::Gauge* peak_memory_bytes_;

  /// Min start / max end stamps across concurrent calls (CAS races resolve
  /// to the extremes whatever order the threads arrive in).
  std::atomic<uint64_t> span_first_start_ns_{kNoStamp};
  std::atomic<uint64_t> span_last_end_ns_{0};
};

}  // namespace relcomp
