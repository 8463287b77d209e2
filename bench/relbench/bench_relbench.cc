// relbench: the benchmark every performance claim in this repository is
// measured with. Four workloads from the paper's datasets and query kinds,
// seven end-to-end metrics from untraced repetitions, and a traced
// repetition plus a bare-estimator replay for the per-layer metrics.
//
//   bench_relbench --workload <name|all> --seed <n> [--reps R | --seconds S]
//                  [--json out.json] [--trace spans.json]
//   bench_relbench --smoke
//   bench_relbench --check-spec BENCHMARK.json
//
// --reps R        run exactly R repetitions (default 5)
// --seconds S     repeat until S seconds of timed work (at least 3 reps)
// --trace FILE    add one traced repetition and the replay; write the spans
//                 to FILE; the closing JSON line then carries the per-layer
//                 metrics instead of the end-to-end ones
// --json FILE     write the full report (every metric, its basis, each rep)
// --smoke         every workload at tiny scale, one repetition each
// --check-spec F  exit non-zero when F names other workloads or metrics
//
// The seed only generates the inputs; dataset and engine seeds are fixed.
// Each repetition builds a fresh dataset and engine and replays the same
// query list, so every repetition does identical work. Verification, the
// accuracy reference, and the replay run outside the timed phase. The exit
// code is non-zero on any failed query, mismatching answer, or broken
// counter invariant. README.md documents the metrics and workloads.

#include <spawn.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "json.h"
#include "load.h"
#include "metrics.h"
#include "reference.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace relbench {

namespace {

using relcomp::EngineQuery;
using relcomp::EngineResult;
using relcomp::StrFormat;

constexpr size_t kDefaultReps = 5;
constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 25;
/// setup_s is a median over at least this many set-ups: each repetition's
/// own, kSetupsPerRep more before each repetition, and as many after the
/// last one as are still missing.
constexpr size_t kMinSetups = 21;
constexpr size_t kSetupsPerRep = 5;
/// K_ref, the reference K of the paper's Fig. 8.
constexpr uint32_t kRefSamples = 10000;
constexpr uint64_t kRefSeed = 0x52454652ULL;
/// The accuracy panel is generated from a fixed seed (see README.md,
/// "rel_error_mean"): the first kPanelSize distinct scalar queries with
/// R_ref >= kPanelMinReliability (paper Eq. 14).
constexpr uint64_t kPanelSeed = 0xACC0ACC0ULL;
constexpr size_t kPanelSize = 100;
constexpr double kPanelMinReliability = 0.01;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  size_t reps = 0;  ///< 0: decided by --seconds, else kDefaultReps
  double seconds = 0.0;
  std::string json_path;
  std::string trace_path;
  std::string spec_path;
  bool smoke = false;
};

/// A metric's value (nullopt = null: the layer did not run, or the registry
/// lacks the name) and the base it was computed from.
struct Reading {
  std::optional<double> value;
  std::string basis;
};
using Readings = std::map<std::string, Reading>;

Reading Ratio(std::optional<double> numerator,
              std::optional<double> denominator) {
  if (!numerator.has_value() || !denominator.has_value() ||
      *denominator <= 0.0) {
    return {};
  }
  return {*numerator / *denominator,
          StrFormat("%.0f/%.0f", *numerator, *denominator)};
}

Reading Scaled(std::optional<double> value, double scale) {
  if (!value.has_value()) return {};
  return {*value * scale, ""};
}

/// A fixed CPU loop, timed before every repetition: it does identical work
/// each time, so its spread is the host's own noise.
double RefLoopMs() {
  relcomp::Timer timer;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint32_t i = 0; i < (1u << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));  // keep the loop: its result is "used"
  return timer.ElapsedMillis();
}

uint64_t InputSeed(uint64_t seed) {
  return relcomp::HashCombineSeed(0x52454C42ULL, seed);
}

/// What the accuracy panel found.
struct Accuracy {
  size_t checked = 0;     ///< panel answers compared with the reference
  size_t violations = 0;  ///< non-OK, or outside the tolerance
  size_t used = 0;        ///< pairs averaged into rel_error_mean
  std::optional<double> rel_error_mean;
  double verify_s = 0.0;
};

/// Answers the accuracy panel on a fresh engine of the workload's
/// configuration and compares every answer with the benchmark's own
/// possible-world reference. An answer further than six standard errors
/// (of the estimate and the reference together) plus 3/K from the reference
/// is wrong, not noisy, and counts as a failure.
Accuracy CheckAccuracy(const WorkloadSpec& spec, const relcomp::Dataset& data,
                       bool smoke) {
  Accuracy out;
  relcomp::Timer timer;
  const size_t candidates = smoke ? 20 : spec.panel_candidates;
  const size_t generated =
      std::max(smoke ? spec.smoke_queries : spec.queries_per_rep,
               10 * candidates);
  std::vector<EngineQuery> panel;
  std::vector<ScalarPair> pairs;
  std::set<std::tuple<relcomp::NodeId, relcomp::NodeId, uint32_t>> seen;
  for (const EngineQuery& query :
       spec.generate(data.graph, kPanelSeed, generated)) {
    if (panel.size() >= candidates) break;
    if (relcomp::IsSweepWorkload(query.workload)) continue;
    const uint32_t hops =
        query.workload == relcomp::WorkloadKind::kDistance ? query.max_hops : 0;
    if (!seen.emplace(query.source, query.target, hops).second) continue;
    panel.push_back(query);
    pairs.push_back(ScalarPair{query.source, query.target, hops});
  }
  const std::string cache = StrFormat(
      ".relcomp_cache/relbench/%s-%s-%s-s%llx-K%u.txt", spec.name,
      data.name.c_str(), relcomp::ScaleName(data.scale),
      static_cast<unsigned long long>(kPanelSeed), kRefSamples);
  const std::vector<double> reference =
      CachedReference(cache, data.graph, pairs, kRefSamples, kRefSeed, kThreads);

  relcomp::Result<std::unique_ptr<relcomp::QueryEngine>> engine =
      relcomp::QueryEngine::Create(data.graph, EngineOptionsFor(spec));
  relcomp::Result<std::vector<EngineResult>> answers =
      engine.ok() ? (*engine)->RunBatch(panel)
                  : relcomp::Result<std::vector<EngineResult>>(engine.status());
  out.checked = panel.size();
  if (!answers.ok() || answers->size() != panel.size()) {
    out.violations = panel.size();
    out.verify_s = timer.ElapsedSeconds();
    return out;
  }
  const double k = spec.num_samples;
  double error_sum = 0.0;
  for (size_t i = 0; i < panel.size(); ++i) {
    const EngineResult& answer = (*answers)[i];
    const double r = reference[i];
    const double sigma =
        std::sqrt(r * (1.0 - r) * (1.0 / k + 1.0 / kRefSamples));
    if (!answer.ok() ||
        std::fabs(answer.reliability - r) > 6.0 * sigma + 3.0 / k) {
      ++out.violations;
      std::fprintf(stderr, "accuracy: %s = %.6f, reference %.6f\n",
                   answer.query.Describe().c_str(), answer.reliability, r);
    }
    if (answer.ok() && r >= kPanelMinReliability && out.used < kPanelSize) {
      error_sum += std::fabs(answer.reliability - r) / r;
      ++out.used;
    }
  }
  if (out.used > 0) out.rel_error_mean = error_sum / out.used;
  out.verify_s = timer.ElapsedSeconds();
  return out;
}

/// Everything one workload run measured.
struct RunReport {
  size_t reps = 0;
  size_t queries_per_rep = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t status_failures = 0;
  size_t identity_mismatches = 0;
  size_t partition_violations = 0;
  size_t partition_checked = 0;
  size_t replay_mismatches = 0;
  size_t replayed = 0;
  Accuracy accuracy;
  std::vector<double> setup_s;
  std::vector<double> dataset_s;
  std::vector<double> qps;
  std::vector<double> cpu_ms_per_query;
  std::vector<double> wall_s;
  std::vector<double> ref_loop_ms;
  std::vector<double> peak_rss_mb;  ///< per rep, from set-up to last reply
  /// Per rep: the median and the tail percentile of its call latencies.
  std::vector<double> p50_ms;
  std::vector<double> tail_ms;
  size_t calls_per_rep = 0;
  size_t tail_beyond = 0;  ///< calls beyond the tail percentile, fewest rep
  Readings end_to_end;
  Readings per_layer;
  std::vector<std::pair<std::string, std::string>> span_table;
};

/// The query partition every engine call must keep: each query is executed,
/// coalesced, failed, or served from the result cache — exactly one of them.
/// nullopt when the registry lacks one of the names.
std::optional<bool> PartitionHolds(const RepOutcome& rep) {
  const std::optional<double> parts[] = {
      CounterDelta(rep.before, rep.after, "engine_executed_total"),
      CounterDelta(rep.before, rep.after, "engine_coalesced_total"),
      CounterDelta(rep.before, rep.after, "engine_failures_total"),
      CounterDelta(rep.before, rep.after, "result_cache_hits_total")};
  const std::optional<double> queries =
      CounterDelta(rep.before, rep.after, "engine_queries_total");
  if (!queries.has_value()) return std::nullopt;
  double sum = 0.0;
  for (const std::optional<double>& part : parts) {
    if (!part.has_value()) return std::nullopt;
    sum += *part;
  }
  return sum == *queries;
}

/// Counts a traced or untraced repetition's failures into `report`. `first`
/// holds rep 1's answer digests (empty while rep 1 itself is checked).
void Verify(const RepOutcome& rep, const std::vector<uint64_t>& first,
            RunReport& report) {
  report.attempted += rep.digests.size();
  report.status_failures += rep.digests.size() - rep.ok;
  for (size_t i = 0; i < rep.digests.size() && i < first.size(); ++i) {
    if (rep.digests[i] != first[i]) ++report.identity_mismatches;
  }
  if (const std::optional<bool> holds = PartitionHolds(rep); holds) {
    ++report.partition_checked;
    if (!*holds) ++report.partition_violations;
  }
}

std::vector<double> SpanDurationsNs(
    const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
    const char* name) {
  std::vector<double> out;
  for (const auto& buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      if (std::strcmp(span.name, name) == 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns));
      }
    }
  }
  return out;
}

Reading SpanPercentile(const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
                       const char* name, double q, double scale) {
  const std::vector<double> ns = SpanDurationsNs(buffers, name);
  if (ns.empty()) return {};
  return {Percentile(ns, q) * scale, StrFormat("%zu spans", ns.size())};
}

Reading StagePercentile(const RepOutcome& rep, const char* stage, double q,
                        double scale) {
  return Scaled(HistQuantileDelta(rep.before, rep.after,
                                  "engine_stage_latency_ns", stage, q),
                scale);
}

/// The traced repetition: one more rep with spans around every call, then
/// the bare-estimator replay of its distinct queries. Fills the per-layer
/// readings and writes the spans to `trace_path`.
void TracedRun(const WorkloadSpec& spec, relcomp::Scale scale,
               const std::vector<EngineQuery>& queries,
               const std::vector<uint64_t>& first,
               const std::string& trace_path, RunReport& report) {
  Readings& layer = report.per_layer;
  relcomp::Result<RepSetup> setup = SetUp(spec, scale);
  if (!setup.ok()) {
    std::fprintf(stderr, "traced set-up failed: %s\n",
                 setup.status().ToString().c_str());
    ++report.failed;
    return;
  }
  relcomp::QueryEngine& engine = *setup->engine;
  const relcomp::IndexMemoryReport index = engine.IndexMemory();
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  const RepOutcome rep = Drive(spec, engine, queries, &spans);
  Verify(rep, first, report);
  const ReplayOutcome replay =
      Replay(engine, setup->dataset->graph, engine.options(), rep.results,
             kThreads, &spans);
  report.replayed = replay.replayed;
  report.replay_mismatches = replay.mismatches;

  // BFS Sharing resamples its worlds between queries (the paper's Table 15
  // cost); every other kind's PrepareForNextQuery is a no-op.
  const bool resamples = spec.kind == relcomp::EstimatorKind::kBfsSharing;
  const bool has_index = index.shared_bytes + index.replica_bytes > 0;
  const Scrape& a = rep.after;
  const Scrape& b = rep.before;

  layer["graph.build_s"] = {Median(report.dataset_s),
                            StrFormat("%zu builds", report.dataset_s.size())};
  layer["graph.bytes_per_edge"] = {a.Gauge("graph_bytes_per_edge"), ""};
  if (has_index) {
    layer["reliability.index_build_s"] = {Median(replay.index_build_s),
                                          "MakeEstimator"};
    layer["reliability.index_bytes"] = {
        static_cast<double>(index.shared_bytes + index.replica_bytes), ""};
  }
  layer["reliability.estimate_us_p50"] =
      SpanPercentile(spans, "reliability.estimate", 0.50, 1e-3);
  layer["reliability.estimate_us_p99"] =
      SpanPercentile(spans, "reliability.estimate", 0.99, 1e-3);
  const std::vector<double> estimate_ns =
      SpanDurationsNs(spans, "reliability.estimate");
  double estimate_total = 0.0;
  for (const double ns : estimate_ns) estimate_total += ns;
  if (replay.samples > 0) {
    layer["reliability.ns_per_sample"] =
        Ratio(estimate_total, static_cast<double>(replay.samples));
  }
  if (resamples) {
    layer["reliability.prepare_ms_p50"] =
        SpanPercentile(spans, "reliability.prepare", 0.50, 1e-6);
    layer["engine.prepare_us_p50"] = StagePercentile(rep, "prepare", 0.5, 1e-3);
    layer["engine.prebuilt_used_ratio"] =
        Ratio(CounterDelta(b, a, "engine_prebuilt_used_total"),
              CounterDelta(b, a, "prebuilder_requested_total"));
  }
  layer["reliability.sweep_ms_p50"] =
      SpanPercentile(spans, "reliability.sweep", 0.50, 1e-6);
  layer["reliability.distance_us_p50"] =
      SpanPercentile(spans, "reliability.distance", 0.50, 1e-3);

  double kernel_ns = 0.0;
  for (const char* name :
       {"reliability.prepare", "reliability.estimate", "reliability.sweep",
        "reliability.distance", "reliability.derive"}) {
    for (const double ns : SpanDurationsNs(spans, name)) kernel_ns += ns;
  }
  {
    Reading share = Ratio(kernel_ns * 1e-9, rep.engine_busy_s);
    share.basis = StrFormat("%.3f s replay / %.3f s engine", kernel_ns * 1e-9,
                            rep.engine_busy_s);
    layer["reliability.kernel_share"] = share;
  }
  layer["engine.queue_wait_us_p50"] =
      StagePercentile(rep, "queue_wait", 0.50, 1e-3);
  layer["engine.queue_wait_us_p99"] =
      StagePercentile(rep, "queue_wait", 0.99, 1e-3);
  layer["engine.worker_busy_frac"] = {
      rep.engine_busy_s / (static_cast<double>(kThreads) * rep.wall_s),
      StrFormat("%.3f s busy / (%zu x %.3f s)", rep.engine_busy_s, kThreads,
                rep.wall_s)};
  const std::optional<double> engine_queries =
      CounterDelta(b, a, "engine_queries_total");
  layer["engine.cache_hit_ratio"] =
      Ratio(CounterDelta(b, a, "result_cache_hits_total"), engine_queries);
  layer["engine.coalesced_ratio"] =
      Ratio(CounterDelta(b, a, "engine_coalesced_total"), engine_queries);
  layer["engine.executed_per_query"] =
      Ratio(CounterDelta(b, a, "engine_executed_total"), engine_queries);
  layer["engine.cache_probe_us_p50"] =
      StagePercentile(rep, "cache_probe", 0.50, 1e-3);
  layer["engine.cache_evictions"] = {
      CounterDelta(b, a, "result_cache_evictions_total"), ""};

  const std::optional<double> sweep_hits =
      CounterDelta(b, a, "engine_sweep_hits_total");
  const std::optional<double> sweep_coalesced =
      CounterDelta(b, a, "engine_sweep_coalesced_total");
  const std::optional<double> sweep_executed =
      CounterDelta(b, a, "engine_sweep_executed_total");
  if (sweep_hits && sweep_coalesced && sweep_executed &&
      *sweep_hits + *sweep_coalesced + *sweep_executed > 0) {
    layer["engine.sweep_reuse_ratio"] =
        Ratio(*sweep_hits + *sweep_coalesced,
              *sweep_hits + *sweep_coalesced + *sweep_executed);
    layer["engine.scout_warms"] = {
        CounterDelta(b, a, "engine_scout_warms_total"), ""};
  }
  layer["engine.strata_stolen_ratio"] =
      Ratio(CounterDelta(b, a, "engine_strata_stolen_total"),
            CounterDelta(b, a, "engine_strata_executed_total"));
  layer["engine.sweep_ms_p50"] = Scaled(
      HistQuantileDelta(b, a, "engine_sweep_latency_ns", "", 0.5), 1e-6);
  layer["engine.sweep_wait_us_p50"] =
      StagePercentile(rep, "sweep_wait", 0.50, 1e-3);
  layer["engine.merge_us_p50"] = StagePercentile(rep, "merge", 0.50, 1e-3);
  layer["engine.derive_us_p50"] = StagePercentile(rep, "derive", 0.50, 1e-3);

  const double traced_qps = static_cast<double>(rep.ok) / rep.wall_s;
  const double untraced_qps = Median(report.qps);
  layer["obs.trace_overhead_frac"] = {
      1.0 - traced_qps / untraced_qps,
      StrFormat("1 - %.2f / %.2f queries/s", traced_qps, untraced_qps)};
  layer["host.ref_loop_ms"] = {Median(report.ref_loop_ms),
                               StrFormat("%zu loops", report.ref_loop_ms.size())};

  // Self time per span name: what each layer cost net of its children.
  std::vector<Span> all;
  for (const auto& buffer : spans) {
    all.insert(all.end(), buffer->spans().begin(), buffer->spans().end());
  }
  const std::vector<uint64_t> self = SelfTimesNs(all);
  std::map<std::string, std::pair<size_t, double>> by_name;
  for (size_t i = 0; i < all.size(); ++i) {
    auto& [count, self_ms] = by_name[all[i].name];
    ++count;
    self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  for (const auto& [name, totals] : by_name) {
    report.span_table.emplace_back(
        name, StrFormat("%8zu spans  %12.3f ms self", totals.first,
                        totals.second));
  }
  if (!WriteSpansJson(trace_path, all)) {
    std::fprintf(stderr, "cannot write spans to %s\n", trace_path.c_str());
  }
}

int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  const relcomp::Scale scale =
      args.smoke ? relcomp::Scale::kTiny : spec.scale;
  relcomp::Result<relcomp::Dataset> generated =
      relcomp::MakeDataset(spec.dataset, scale, kDatasetSeed);
  if (!generated.ok()) {
    std::fprintf(stderr, "MakeDataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const relcomp::Dataset& data = *generated;
  const size_t count = args.smoke ? spec.smoke_queries : spec.queries_per_rep;
  const std::vector<EngineQuery> queries =
      spec.generate(data.graph, InputSeed(args.seed), count);
  if (queries.empty()) {
    std::fprintf(stderr, "%s: the generator produced no queries\n", spec.name);
    return 1;
  }
  std::printf("relbench %s seed=%llu: %s/%s (%zu nodes, %zu edges), %zu "
              "queries per rep, K=%u S=%u, %zu closed-loop callers, %zu "
              "queries/call\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              data.name.c_str(), relcomp::ScaleName(scale),
              data.graph.num_nodes(), data.graph.num_edges(), queries.size(),
              spec.num_samples, spec.num_strata, spec.callers, spec.chunk);
  std::fflush(stdout);

  RunReport report;
  report.queries_per_rep = queries.size();
  const size_t fixed_reps =
      args.smoke ? 1 : args.reps > 0 ? args.reps
                     : args.seconds > 0.0 ? 0 : kDefaultReps;
  auto set_up = [&]() {
    relcomp::Result<RepSetup> setup = SetUp(spec, scale);
    if (setup.ok()) {
      report.dataset_s.push_back(setup->dataset_s);
      report.setup_s.push_back(setup->dataset_s + setup->create_s);
    } else {
      std::fprintf(stderr, "set-up failed: %s\n",
                   setup.status().ToString().c_str());
    }
    return setup;
  };
  std::vector<uint64_t> first;
  double timed_s = 0.0;
  while (true) {
    // Extra set-ups before every repetition, so that setup_s samples the
    // host over the whole run: the same set-up took 5 ms or 7.5 ms for
    // seconds at a time, and a burst of set-ups at one moment read one or
    // the other.
    for (size_t i = 0; !args.smoke && i < kSetupsPerRep; ++i) {
      if (!set_up().ok()) return 1;
    }
    report.ref_loop_ms.push_back(RefLoopMs());
    // peak_rss_mb is repetition 1's, so only it starts from a trimmed heap.
    // Every other set-up reuses the heap the previous one freed, instead of
    // faulting it in again: trimming before each set-up made their spread
    // within a run up to seven times wider.
    if (report.reps == 0) ResetPeakRss();
    relcomp::Result<RepSetup> setup = set_up();
    if (!setup.ok()) return 1;
    RepOutcome rep = Drive(spec, *setup->engine, queries, nullptr);
    report.peak_rss_mb.push_back(PeakRssMiB());
    Verify(rep, first, report);
    const double ok = static_cast<double>(std::max<size_t>(rep.ok, 1));
    report.qps.push_back(static_cast<double>(rep.ok) / rep.wall_s);
    report.cpu_ms_per_query.push_back(rep.cpu_s * 1e3 / ok);
    report.wall_s.push_back(rep.wall_s);
    report.p50_ms.push_back(Percentile(rep.call_ms, 0.5));
    report.tail_ms.push_back(Percentile(rep.call_ms, spec.tail_quantile));
    const size_t beyond = CountBeyond(rep.call_ms, spec.tail_quantile);
    report.tail_beyond =
        report.reps == 0 ? beyond : std::min(report.tail_beyond, beyond);
    report.calls_per_rep = rep.call_ms.size();
    ++report.reps;
    timed_s += rep.wall_s;
    std::printf("  rep %zu: setup %.3f s, %.3f s timed, %.1f queries/s, "
                "%.3f cpu ms/query, ref loop %.1f ms\n",
                report.reps, report.setup_s.back(), rep.wall_s,
                report.qps.back(), report.cpu_ms_per_query.back(),
                report.ref_loop_ms.back());
    std::fflush(stdout);
    if (first.empty()) first = std::move(rep.digests);
    const bool done = fixed_reps > 0
                          ? report.reps >= fixed_reps
                          : (timed_s >= args.seconds &&
                             report.reps >= kMinReps) ||
                                report.reps >= kMaxReps;
    if (done) break;
  }
  while (!args.smoke && report.setup_s.size() < kMinSetups) {
    if (!set_up().ok()) return 1;
  }
  if (!args.trace_path.empty()) {
    TracedRun(spec, scale, queries, first, args.trace_path, report);
  }
  report.accuracy = CheckAccuracy(spec, data, args.smoke);
  report.attempted += report.accuracy.checked;
  report.failed += report.status_failures + report.identity_mismatches +
                   report.partition_violations + report.replay_mismatches +
                   report.accuracy.violations;

  Readings& e2e = report.end_to_end;
  e2e["throughput_qps"] = {Median(report.qps),
                           StrFormat("median of %zu reps", report.reps)};
  // Latency percentiles are taken per rep and reported as the median over
  // reps, so a burst of host noise inside one rep does not set the value.
  e2e["latency_p50_ms"] = {
      Median(report.p50_ms),
      StrFormat("median of %zu reps of %zu calls", report.reps,
                report.calls_per_rep)};
  e2e["latency_tail_ms"] = {
      Median(report.tail_ms),
      StrFormat("median of %zu reps; p%.0f of %zu calls, >= %zu beyond",
                report.reps, spec.tail_quantile * 100, report.calls_per_rep,
                report.tail_beyond)};
  e2e["cpu_ms_per_query"] = {Median(report.cpu_ms_per_query),
                             StrFormat("median of %zu reps", report.reps)};
  e2e["setup_s"] = {Median(report.setup_s),
                    StrFormat("median of %zu set-ups", report.setup_s.size())};
  // Rep 1 only: the process retains a little more heap after every
  // repetition, so a later rep's peak would grow with the number of reps
  // a fast host fits into --seconds.
  e2e["peak_rss_mb"] = {report.peak_rss_mb.front(), "rep 1"};
  e2e["rel_error_mean"] = {
      report.accuracy.rel_error_mean,
      StrFormat("%zu pairs with R_ref >= %.2f, K_ref %u",
                report.accuracy.used, kPanelMinReliability, kRefSamples)};

  // Report: every metric by name with its unit, then the checks.
  auto print = [](const MetricDef& def, const Reading& r) {
    std::printf("  %-30s %14s %-10s %s\n", def.name,
                r.value ? StrFormat("%.6g", *r.value).c_str() : "null",
                def.unit, r.basis.c_str());
  };
  std::printf("end-to-end (untraced):\n");
  for (const MetricDef& def : kEndToEnd) print(def, e2e[def.name]);
  const double failed_frac =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<size_t>(report.attempted, 1));
  std::printf("  %-30s %14.6g %-10s %zu/%zu\n", "failed_frac", failed_frac,
              "ratio", report.failed, report.attempted);
  std::printf("checks: %zu non-OK, %zu answers differing from rep 1, "
              "partition held on %zu/%zu reps, accuracy %zu/%zu within "
              "tolerance, verify_s %.3f\n",
              report.status_failures, report.identity_mismatches,
              report.partition_checked - report.partition_violations,
              report.partition_checked,
              report.accuracy.checked - report.accuracy.violations,
              report.accuracy.checked, report.accuracy.verify_s);
  if (!args.trace_path.empty()) {
    std::printf("replay: %zu distinct queries, %zu mismatches\n",
                report.replayed, report.replay_mismatches);
    std::printf("per-layer (traced rep + replay):\n");
    for (const MetricDef& def : kPerLayer) print(def, report.per_layer[def.name]);
    std::printf("span self time:\n");
    for (const auto& [name, line] : report.span_table) {
      std::printf("  %-24s %s\n", name.c_str(), line.c_str());
    }
  }

  if (!args.json_path.empty()) {
    std::ofstream json(args.json_path);
    auto readings = [&](const auto& defs, Readings& values) {
      std::string out = "{";
      bool comma = false;
      for (const MetricDef& def : defs) {
        const Reading& r = values[def.name];
        out += StrFormat("%s\n    %s: {\"value\": %s, \"unit\": %s, "
                         "\"basis\": %s}",
                         comma ? "," : "", JsonQuote(def.name).c_str(),
                         JsonNumber(r.value).c_str(),
                         JsonQuote(def.unit).c_str(),
                         JsonQuote(r.basis).c_str());
        comma = true;
      }
      return out + "\n  }";
    };
    auto list = [](const std::vector<double>& values) {
      std::string out = "[";
      for (size_t i = 0; i < values.size(); ++i) {
        out += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
      }
      return out + "]";
    };
    json << "{\n  \"workload\": " << JsonQuote(spec.name)
         << ",\n  \"seed\": " << args.seed << ",\n  \"reps\": " << report.reps
         << ",\n  \"queries_per_rep\": " << report.queries_per_rep
         << ",\n  \"attempted\": " << report.attempted
         << ",\n  \"failed\": " << report.failed
         << ",\n  \"failed_frac\": " << JsonNumber(failed_frac)
         << ",\n  \"verify_s\": " << JsonNumber(report.accuracy.verify_s)
         << ",\n  \"end_to_end\": " << readings(kEndToEnd, e2e);
    if (!args.trace_path.empty()) {
      json << ",\n  \"per_layer\": " << readings(kPerLayer, report.per_layer)
           << ",\n  \"replayed\": " << report.replayed
           << ",\n  \"replay_mismatches\": " << report.replay_mismatches;
    }
    json << ",\n  \"per_rep\": {\"setup_s\": " << list(report.setup_s)
         << ", \"wall_s\": " << list(report.wall_s)
         << ", \"throughput_qps\": " << list(report.qps)
         << ", \"latency_p50_ms\": " << list(report.p50_ms)
         << ", \"latency_tail_ms\": " << list(report.tail_ms)
         << ", \"cpu_ms_per_query\": " << list(report.cpu_ms_per_query)
         << ", \"peak_rss_mb\": " << list(report.peak_rss_mb)
         << ", \"ref_loop_ms\": " << list(report.ref_loop_ms) << "}\n}\n";
  }

  // Closing line: the end-to-end metrics, or the per-layer ones when traced.
  // A layer the workload does not run reads 0 here (null in --json).
  const bool traced = !args.trace_path.empty();
  std::string metrics;
  for (const MetricDef& def : traced ? std::vector<MetricDef>(
                                           std::begin(kPerLayer),
                                           std::end(kPerLayer))
                                     : std::vector<MetricDef>(
                                           std::begin(kEndToEnd),
                                           std::end(kEndToEnd))) {
    const Reading& r = (traced ? report.per_layer : e2e)[def.name];
    metrics += StrFormat("%s%s: {\"value\": %s, \"unit\": %s}",
                         metrics.empty() ? "" : ", ",
                         JsonQuote(def.name).c_str(),
                         JsonNumber(r.value.value_or(0.0)).c_str(),
                         JsonQuote(def.unit).c_str());
  }
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  return correct ? 0 : 1;
}

/// `--workload all`: one child process per workload, so each reports its
/// own peak RSS.
int RunAll(const Args& args) {
  int worst = 0;
  for (const WorkloadSpec& spec : Workloads()) {
    std::vector<std::string> argv = {"bench_relbench", "--workload", spec.name,
                                     "--seed", std::to_string(args.seed)};
    if (args.smoke) argv.push_back("--smoke");
    if (args.reps > 0) {
      argv.insert(argv.end(), {"--reps", std::to_string(args.reps)});
    }
    if (args.seconds > 0.0) {
      argv.insert(argv.end(), {"--seconds", StrFormat("%g", args.seconds)});
    }
    auto suffixed = [&](const std::string& path) {
      const size_t dot = path.rfind('.');
      return dot == std::string::npos || dot < path.rfind('/') + 1
                 ? path + "." + spec.name
                 : path.substr(0, dot) + "." + spec.name + path.substr(dot);
    };
    if (!args.json_path.empty()) {
      argv.insert(argv.end(), {"--json", suffixed(args.json_path)});
    }
    if (!args.trace_path.empty()) {
      argv.insert(argv.end(), {"--trace", suffixed(args.trace_path)});
    }
    std::vector<char*> raw;
    for (std::string& arg : argv) raw.push_back(arg.data());
    raw.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, raw.data(),
                    environ) != 0) {
      std::fprintf(stderr, "cannot start the %s run\n", spec.name);
      return 1;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      worst = 1;
    }
  }
  return worst;
}

/// `--check-spec`: the workload and metric names (with units and
/// directions) in `path` must be exactly the ones this binary prints.
int CheckSpec(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<JsonValue> spec = ParseJson(text.str());
  if (!in || !spec.has_value()) {
    std::fprintf(stderr, "%s: not readable as JSON\n", path.c_str());
    return 1;
  }
  int problems = 0;
  auto compare = [&](const char* key, std::set<std::string> expected,
                     bool with_units) {
    std::set<std::string> found;
    if (const JsonValue* list = spec->Find(key); list != nullptr) {
      for (const JsonValue& entry : list->items) {
        const JsonValue* name = entry.Find("name");
        if (name == nullptr) continue;
        std::string id = name->string;
        if (with_units) {
          const JsonValue* unit = entry.Find("unit");
          const JsonValue* better = entry.Find("better");
          id += StrFormat(" [%s, %s]", unit ? unit->string.c_str() : "?",
                          better ? better->string.c_str() : "?");
        }
        found.insert(id);
      }
    }
    for (const std::string& id : expected) {
      if (found.count(id) == 0) {
        std::fprintf(stderr, "%s: missing %s\n", key, id.c_str());
        ++problems;
      }
    }
    for (const std::string& id : found) {
      if (expected.count(id) == 0) {
        std::fprintf(stderr, "%s: unknown %s\n", key, id.c_str());
        ++problems;
      }
    }
  };
  auto ids = [](const auto& defs) {
    std::set<std::string> out;
    for (const MetricDef& def : defs) {
      out.insert(StrFormat("%s [%s, %s]", def.name, def.unit, def.better));
    }
    return out;
  };
  std::set<std::string> workloads;
  for (const WorkloadSpec& spec_entry : Workloads()) {
    workloads.insert(spec_entry.name);
  }
  compare("workloads", workloads, false);
  compare("end_to_end", ids(kEndToEnd), true);
  compare("per_layer", ids(kPerLayer), true);
  std::printf("%s: %s\n", path.c_str(),
              problems == 0 ? "matches the binary" : "DIFFERS from the binary");
  return problems == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      args->workload = argv[++i];
    } else if (flag == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--reps") {
      const long reps = std::atol(argv[++i]);
      if (reps < 1 || reps > 1000) return false;
      args->reps = static_cast<size_t>(reps);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(argv[++i]);
      if (!(args->seconds > 0.0 && args->seconds <= 3600.0)) return false;
    } else if (flag == "--json") {
      args->json_path = argv[++i];
    } else if (flag == "--trace") {
      args->trace_path = argv[++i];
    } else if (flag == "--check-spec") {
      args->spec_path = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

}  // namespace relbench

int main(int argc, char** argv) {
  using namespace relbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_relbench --workload <name|all> --seed <n> "
                 "[--reps R | --seconds S] [--json out.json] "
                 "[--trace spans.json] | --smoke | --check-spec "
                 "BENCHMARK.json\n");
    return 2;
  }
  if (!args.spec_path.empty()) return CheckSpec(args.spec_path);
  if (args.smoke && args.workload.empty()) args.workload = "all";
  if (args.workload == "all") return RunAll(args);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:", args.workload.c_str());
    for (const WorkloadSpec& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, " all\n");
    return 2;
  }
  return RunWorkload(*spec, args);
}
