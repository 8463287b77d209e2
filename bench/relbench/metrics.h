#pragma once

// Every metric relbench prints, with its unit and direction. BENCHMARK.json
// lists the same names; `bench_relbench --check-spec BENCHMARK.json` fails
// when the two drift apart. README.md defines each metric and the layer it
// belongs to.

namespace relbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

/// Measured on the untraced repetitions (rel_error_mean on the accuracy
/// panel, after them).
inline constexpr MetricDef kEndToEnd[] = {
    {"throughput_qps", "queries/s", "higher"},
    {"latency_p50_ms", "ms", "lower"},
    {"latency_tail_ms", "ms", "lower"},
    {"cpu_ms_per_query", "ms", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"rel_error_mean", "ratio", "lower"},
};

/// Measured on the traced repetition and its replay.
inline constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s", "lower"},
    {"graph.bytes_per_edge", "B/edge", "lower"},
    {"reliability.index_build_s", "s", "lower"},
    {"reliability.index_bytes", "B", "lower"},
    {"reliability.estimate_us_p50", "us", "lower"},
    {"reliability.estimate_us_p99", "us", "lower"},
    {"reliability.ns_per_sample", "ns", "lower"},
    {"reliability.prepare_ms_p50", "ms", "lower"},
    {"reliability.sweep_ms_p50", "ms", "lower"},
    {"reliability.distance_us_p50", "us", "lower"},
    {"reliability.kernel_share", "ratio", "higher"},
    {"engine.queue_wait_us_p50", "us", "lower"},
    {"engine.queue_wait_us_p99", "us", "lower"},
    {"engine.worker_busy_frac", "ratio", "higher"},
    {"engine.cache_hit_ratio", "ratio", "higher"},
    {"engine.coalesced_ratio", "ratio", "higher"},
    {"engine.executed_per_query", "ratio", "lower"},
    {"engine.cache_probe_us_p50", "us", "lower"},
    {"engine.cache_evictions", "count", "lower"},
    {"engine.sweep_reuse_ratio", "ratio", "higher"},
    {"engine.scout_warms", "count", "higher"},
    {"engine.strata_stolen_ratio", "ratio", "higher"},
    {"engine.sweep_ms_p50", "ms", "lower"},
    {"engine.sweep_wait_us_p50", "us", "lower"},
    {"engine.merge_us_p50", "us", "lower"},
    {"engine.derive_us_p50", "us", "lower"},
    {"engine.prepare_us_p50", "us", "lower"},
    {"engine.prebuilt_used_ratio", "ratio", "higher"},
    {"obs.trace_overhead_frac", "ratio", "lower"},
    {"host.ref_loop_ms", "ms", "lower"},
};

}  // namespace relbench
