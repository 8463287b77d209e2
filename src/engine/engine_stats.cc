#include "engine/engine_stats.h"

#include <string_view>

#include "common/timer.h"

namespace relcomp {

EngineStats::EngineStats(obs::MetricsRegistry& registry) {
  query_latency_ns_ = registry.GetHistogram("engine_query_latency_ns");
  sweep_latency_ns_ = registry.GetHistogram("engine_sweep_latency_ns");
  executed_ = registry.GetCounter("engine_executed_total");
  coalesced_ = registry.GetCounter("engine_coalesced_total");
  failures_ = registry.GetCounter("engine_failures_total");
  shed_queue_full_ =
      registry.GetCounter("engine_shed_total", "reason", "queue_full");
  shed_overload_ =
      registry.GetCounter("engine_shed_total", "reason", "overload");
  deadline_exceeded_ = registry.GetCounter("engine_deadline_exceeded_total");
  for (size_t i = 0; i < kNumWorkloadKinds; ++i) {
    workload_queries_[i] =
        registry.GetCounter("engine_queries_total", "workload",
                            WorkloadKindName(static_cast<WorkloadKind>(i)));
  }
  sweep_executed_ = registry.GetCounter("engine_sweep_executed_total");
  sweep_hits_ = registry.GetCounter("engine_sweep_hits_total");
  sweep_coalesced_ = registry.GetCounter("engine_sweep_coalesced_total");
  strata_executed_ = registry.GetCounter("engine_strata_executed_total");
  strata_stolen_ = registry.GetCounter("engine_strata_stolen_total");
  scout_warms_ = registry.GetCounter("engine_scout_warms_total");
  prebuilt_used_ = registry.GetCounter("engine_prebuilt_used_total");
  wall_seconds_ = registry.GetGauge("engine_wall_seconds");
  span_seconds_ = registry.GetGauge("engine_span_seconds");
  peak_memory_bytes_ = registry.GetGauge("engine_peak_memory_bytes");
}

void EngineStats::RecordExecuted(double seconds, size_t peak_memory_bytes) {
  query_latency_ns_->RecordSeconds(seconds);
  executed_->Inc();
  peak_memory_bytes_->SetMax(static_cast<double>(peak_memory_bytes));
}

void EngineStats::RecordCacheHit() { query_latency_ns_->Record(0); }

void EngineStats::RecordCoalesced(double wait_seconds) {
  query_latency_ns_->RecordSeconds(wait_seconds);
  coalesced_->Inc();
}

void EngineStats::RecordFailure(double seconds) {
  query_latency_ns_->RecordSeconds(seconds);
  failures_->Inc();
}

void EngineStats::RecordShed(const char* reason) {
  if (reason != nullptr && std::string_view(reason) == "queue_full") {
    shed_queue_full_->Inc();
  } else {
    shed_overload_->Inc();
  }
}

void EngineStats::RecordDeadlineExceeded() { deadline_exceeded_->Inc(); }

void EngineStats::RecordSweepExecuted() { sweep_executed_->Inc(); }

void EngineStats::RecordSweepHit() { sweep_hits_->Inc(); }

void EngineStats::RecordSweepCoalesced() { sweep_coalesced_->Inc(); }

void EngineStats::RecordStratum(bool stolen) {
  strata_executed_->Inc();
  if (stolen) strata_stolen_->Inc();
}

void EngineStats::RecordScoutWarm() { scout_warms_->Inc(); }

void EngineStats::RecordSweepLatency(double seconds) {
  sweep_latency_ns_->RecordSeconds(seconds);
}

void EngineStats::RecordPrebuiltUsed() { prebuilt_used_->Inc(); }

void EngineStats::RecordWorkload(WorkloadKind kind) {
  workload_queries_[static_cast<size_t>(kind)]->Inc();
}

void EngineStats::AddWallTime(double seconds) { wall_seconds_->Add(seconds); }

void EngineStats::MarkCallStart() {
  const uint64_t now = StopwatchNs::Now();
  // Min, not first-to-arrive: two concurrent calls may take their stamps in
  // one order and update in the other.
  uint64_t seen = span_first_start_ns_.load(std::memory_order_relaxed);
  while (now < seen && !span_first_start_ns_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

void EngineStats::MarkCallEnd() {
  const uint64_t now = StopwatchNs::Now();
  uint64_t seen = span_last_end_ns_.load(std::memory_order_relaxed);
  while (now > seen && !span_last_end_ns_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
  // SetMax, not Set: a call preempted between reading the stamps and
  // publishing must not overwrite a later call's longer span.
  const uint64_t first = span_first_start_ns_.load(std::memory_order_relaxed);
  const uint64_t last = span_last_end_ns_.load(std::memory_order_relaxed);
  if (first != kNoStamp && last > first) {
    span_seconds_->SetMax(static_cast<double>(last - first) * 1e-9);
  }
}

void EngineStats::Reset() {
  query_latency_ns_->Reset();
  sweep_latency_ns_->Reset();
  executed_->Reset();
  coalesced_->Reset();
  failures_->Reset();
  shed_queue_full_->Reset();
  shed_overload_->Reset();
  deadline_exceeded_->Reset();
  for (obs::Counter* counter : workload_queries_) counter->Reset();
  sweep_executed_->Reset();
  sweep_hits_->Reset();
  sweep_coalesced_->Reset();
  strata_executed_->Reset();
  strata_stolen_->Reset();
  scout_warms_->Reset();
  prebuilt_used_->Reset();
  wall_seconds_->Reset();
  span_seconds_->Reset();
  peak_memory_bytes_->Reset();
  span_first_start_ns_.store(kNoStamp, std::memory_order_relaxed);
  span_last_end_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace relcomp
