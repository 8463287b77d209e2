// reliability_server: replays a generated mixed workload through the
// concurrent QueryEngine, the way a serving frontend would — a Zipf-skewed
// stream of repeated parametrized requests spanning all four workload kinds
// (s-t, top-k, reliable-set, distance-constrained), worker-thread estimator
// replicas, a result cache absorbing the hot keys, and the sweep-sharing
// layer collapsing every top-k / reliable-set parameterization of one hot
// source into a single per-source sweep. The catalogue deliberately asks for
// two different k and eta per source so the sweep sharing is visible in the
// printed stats.
//
// The serving loop is fault-tolerant the way the engine is: load shedding
// is always armed (a full queue answers kUnavailable with a retry-after
// hint instead of blocking the client), and the client side answers each
// shed with a bounded, seeded exponential backoff — base 1 ms doubling to a
// 64 ms cap over at most 6 retries, each delay jittered uniformly in
// [delay/2, delay] from a dedicated RNG so a replay backs off identically.
// A request still shed after the last retry is dropped and counted, never
// fatal.
//
//   ./build/examples/reliability_server [dataset] [threads] [requests] [kind]
//                                       [strata] [--stats-json <path>]
//                                       [--slow-query-ms <n>]
//                                       [--deadline-ms <n>] [--shed-depth <n>]
//
//   dataset  : lastfm | nethept | astopo | dblp02 | dblp005 | biomine
//   threads  : worker threads (default 4)
//   requests : total stream length (default 2000)
//   kind     : mc | bfs (default mc; bfs also exercises the background
//              generation prebuilder)
//   strata   : stratified-partition width S of every sweep (default 8).
//              Deliberately NOT tied to the thread count: results are a
//              canonical function of (query content, S), so the same S at
//              any thread count answers bit-identically — the threads only
//              decide how many workers steal strata of a hot sweep.
//
//   --stats-json <path>   : write one MetricsRegistry::ExportJson() scrape —
//                           every engine counter, gauge, and latency
//                           histogram — to <path> at shutdown.
//   --slow-query-ms <n>   : arm per-query tracing and dump the span tree of
//                           every query slower than n ms (answers are
//                           bit-identical with tracing on or off).
//   --deadline-ms <n>     : per-query deadline (default 0 = none). Expired
//                           requests fail with kDeadlineExceeded — counted
//                           in the cycle stats, never cached, never fatal.
//   --shed-depth <n>      : queue depth past which compute-bound requests
//                           are shed (default 0 = shed only when the queue
//                           is completely full).
//   --persist-dir <path>  : arm the crash-safe persistence tier
//                           (src/persist/): snapshots + warm-state journal
//                           live under <path>. The startup line reports the
//                           cold-start time and whether the index came from
//                           the mmapped snapshot or a rebuild; after the
//                           replay the server runs one kill-and-restart
//                           cycle — the engine is destroyed (its destructor
//                           flushes the warm journal, exactly what a clean
//                           SIGTERM does), recreated from disk, and fed a
//                           replay sample — reporting the restarted
//                           cold-start ms, the restored entry counts, and
//                           the warm-hit rate the restored caches served.
//                           Run the binary twice with the same flags to see
//                           a real cross-process restart: the second run's
//                           *initial* cold start is already warm.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"

using namespace relcomp;

namespace {

DatasetId ParseDataset(const char* name) {
  for (DatasetId id : AllDatasetIds()) {
    if (std::strcmp(name, DatasetName(id)) == 0) return id;
  }
  std::fprintf(stderr, "unknown dataset '%s', using lastfm\n", name);
  return DatasetId::kLastFm;
}

void PrintResponse(const EngineResult& r) {
  const char* how = r.cache_hit   ? "cache hit"
                    : r.coalesced ? "coalesced"
                                  : "computed";
  if (!r.ok()) {
    // Per-query status: a failed request reports itself without having
    // discarded the rest of the drain cycle.
    std::printf("  %s FAILED: %s\n", r.query.Describe().c_str(),
                r.status.ToString().c_str());
    return;
  }
  switch (r.query.workload) {
    case WorkloadKind::kSt:
    case WorkloadKind::kDistance:
      std::printf("  %s = %.4f  (%s, seed %016llx)\n",
                  r.query.Describe().c_str(), r.reliability, how,
                  static_cast<unsigned long long>(r.seed));
      break;
    case WorkloadKind::kTopK:
    case WorkloadKind::kReliableSet: {
      std::string head;
      for (size_t i = 0; i < r.targets.size() && i < 3; ++i) {
        head += StrFormat("%s%u:%.3f", i == 0 ? "" : ", ",
                          r.targets[i].node, r.targets[i].reliability);
      }
      std::printf("  %s -> %zu targets [%s%s]  (%s)\n",
                  r.query.Describe().c_str(), r.targets.size(), head.c_str(),
                  r.targets.size() > 3 ? ", ..." : "", how);
      break;
    }
  }
}

/// One counter of `registry`, the same instrument the scrape exports; a
/// labelled family member names its label pair. Typed for printf's %llu.
unsigned long long Count(obs::MetricsRegistry& registry, const char* name,
                         const char* label_key = "",
                         const char* label_value = "") {
  return registry.GetCounter(name, label_key, label_value)->Value();
}

unsigned long long Shed(obs::MetricsRegistry& registry) {
  return Count(registry, "engine_shed_total", "reason", "queue_full") +
         Count(registry, "engine_shed_total", "reason", "overload");
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional, in order.
  std::string stats_json_path;
  std::string persist_dir;
  double slow_query_ms = 0.0;
  double deadline_ms = 0.0;
  long shed_depth = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--shed-depth") == 0 && i + 1 < argc) {
      shed_depth = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--persist-dir") == 0 && i + 1 < argc) {
      persist_dir = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const DatasetId dataset_id = positional.size() > 0
                                   ? ParseDataset(positional[0])
                                   : DatasetId::kLastFm;
  const long threads_arg = positional.size() > 1 ? std::atol(positional[1]) : 4;
  const long requests_arg =
      positional.size() > 2 ? std::atol(positional[2]) : 2000;
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  if (positional.size() > 3) {
    if (std::strcmp(positional[3], "bfs") == 0) {
      kind = EstimatorKind::kBfsSharing;
    } else if (std::strcmp(positional[3], "mc") != 0) {
      std::fprintf(stderr, "unknown kind '%s', using mc\n", positional[3]);
    }
  }
  const long strata_arg = positional.size() > 4 ? std::atol(positional[4]) : 8;
  if (threads_arg < 0 || threads_arg > 1024 || requests_arg < 0 ||
      strata_arg < 1 || strata_arg > 4096 || slow_query_ms < 0 ||
      deadline_ms < 0 || shed_depth < 0) {
    std::fprintf(stderr,
                 "usage: reliability_server [dataset] [threads 0-1024] "
                 "[requests >= 0] [mc|bfs] [strata 1-4096] "
                 "[--stats-json <path>] [--slow-query-ms <n>] "
                 "[--deadline-ms <n>] [--shed-depth <n>] "
                 "[--persist-dir <path>]\n");
    return 2;
  }
  const size_t threads = static_cast<size_t>(threads_arg);
  const size_t requests = static_cast<size_t>(requests_arg);

  Dataset dataset = MakeDataset(dataset_id, Scale::kSmall, 20190410).MoveValue();
  std::printf("serving %s: %s\n", dataset.name.c_str(),
              dataset.graph.Describe().c_str());

  // The catalogue of distinct queries users may ask — a mixed-workload
  // stream over the paper's h=2 pairs — hit with a skewed popularity
  // distribution.
  MixedWorkloadOptions mix;
  mix.pairs.num_pairs = 100;
  mix.pairs.seed = 7;
  mix.num_queries = 200;
  mix.k = 10;
  mix.eta = 0.2;
  mix.max_hops = 4;
  std::vector<EngineQuery> catalogue =
      GenerateMixedWorkload(dataset.graph, mix).MoveValue();
  // A second parameterization of the same sources: the sweep-sharing layer
  // answers top-k(s, 5) / reliable-set(s, 0.5) from the very sweeps the
  // first parameterization already ran.
  mix.k = 5;
  mix.eta = 0.5;
  mix.seed = 100;
  const std::vector<EngineQuery> second =
      GenerateMixedWorkload(dataset.graph, mix).MoveValue();
  catalogue.insert(catalogue.end(), second.begin(), second.end());

  EngineOptions options;
  options.num_threads = threads;
  options.kind = kind;
  options.num_samples = kind == EstimatorKind::kBfsSharing ? 500 : 1000;
  options.num_strata = static_cast<uint32_t>(strata_arg);
  options.factory.bfs_sharing.index_samples = 500;
  options.seed = 20190410;
  options.cache_capacity = 4096;
  options.cache_max_bytes = size_t{16} << 20;  // ranked payloads, by bytes
  options.slow_query_ms = slow_query_ms;
  options.default_deadline_ms = deadline_ms;
  // Shedding is always armed: a full queue refuses work with a retry-after
  // hint instead of blocking the submit loop; the client backs off below.
  options.enable_load_shedding = true;
  options.shed_queue_depth = static_cast<size_t>(shed_depth);
  // Crash-safe persistence: snapshots + warm journal under --persist-dir.
  options.persist_dir = persist_dir;
  Timer cold_start;
  auto engine = QueryEngine::Create(dataset.graph, options).MoveValue();
  const double cold_start_ms = cold_start.ElapsedSeconds() * 1e3;
  if (!persist_dir.empty()) {
    const QueryEngine::WarmRestoreReport& report =
        engine->warm_restore_report();
    std::printf(
        "persistence: dir %s, cold start %.1f ms (%s), warm restore %llu "
        "results + %llu sweeps (%llu skipped%s)\n",
        persist_dir.c_str(), cold_start_ms,
        report.snapshot_restored ? "index mmapped from snapshot"
                                 : "rebuilt from source, snapshot published",
        static_cast<unsigned long long>(report.result_entries),
        static_cast<unsigned long long>(report.sweep_entries),
        static_cast<unsigned long long>(report.skipped),
        report.torn_tail ? ", torn journal tail discarded" : "");
  }
  std::printf(
      "engine up: %s estimator, %zu workers, S=%u strata per sweep, cache "
      "%zu entries / %zu MB, sweep cache %zu MB, scout %s, prebuilder %s, "
      "K=%u\n\n",
      EstimatorKindName(kind), engine->num_threads(), options.num_strata,
      options.cache_capacity, options.cache_max_bytes >> 20,
      options.sweep_cache_max_bytes >> 20,
      options.enable_sweep_scout ? "on" : "off",
      engine->prebuilder() != nullptr
          ? StrFormat("on (%zu builders)",
                      engine->prebuilder()->num_builders())
                .c_str()
          : "off (kind has no prepared generations)",
      options.num_samples);

  // Replay: popularity ~ 1/rank over the catalogue, like repeated users
  // asking about the same few queries.
  Rng rng(42);
  std::vector<double> cumulative(catalogue.size());
  double total = 0.0;
  for (size_t i = 0; i < catalogue.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cumulative[i] = total;
  }
  // The stream drains in cycles, with a periodic one-line stats scrape after
  // each — the registry is cumulative, so every line is a strict progression
  // of the last.
  constexpr size_t kDrainCycles = 4;
  const size_t cycle_len = requests < kDrainCycles ? requests
                                                   : requests / kDrainCycles;
  // Client-side fault handling: a shed submit (kUnavailable) retries with
  // bounded exponential backoff — 1 ms base doubling to a 64 ms cap over at
  // most 6 retries — jittered uniformly in [delay/2, delay] from a seeded
  // RNG (deterministic replays, decorrelated retry waves). Requests still
  // shed after the last retry are dropped, not fatal. The retry / drop
  // counters land in the engine's own registry so one --stats-json scrape
  // carries the client picture next to engine_shed_total.
  constexpr int kMaxRetries = 6;
  Rng backoff_rng(0xB0FF5EED);
  obs::Counter* retried_counter =
      engine->metrics().GetCounter("client_retried_total");
  obs::Counter* dropped_counter =
      engine->metrics().GetCounter("client_dropped_total");
  size_t submitted = 0;
  std::vector<EngineResult> responses;
  while (submitted < requests) {
    const size_t batch = std::min(cycle_len > 0 ? cycle_len : size_t{1},
                                  requests - submitted);
    for (size_t i = 0; i < batch; ++i) {
      const double u = rng.NextDouble() * total;
      size_t pick = 0;
      while (pick + 1 < cumulative.size() && cumulative[pick] < u) ++pick;
      Status status = engine->Submit(catalogue[pick]);
      for (int attempt = 0;
           !status.ok() && status.code() == StatusCode::kUnavailable &&
           attempt < kMaxRetries;
           ++attempt) {
        const double base_ms =
            std::min(64.0, static_cast<double>(1u << attempt));
        const double delay_ms =
            base_ms * (0.5 + 0.5 * backoff_rng.NextDouble());
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
        retried_counter->Inc();
        status = engine->Submit(catalogue[pick]);
      }
      if (!status.ok()) {
        if (status.code() == StatusCode::kUnavailable) {
          // Still shed after the retry budget: drop this request and move
          // on — overload is a degraded mode, not a crash.
          dropped_counter->Inc();
          ++submitted;
          continue;
        }
        std::fprintf(stderr, "submit failed: %s\n", status.ToString().c_str());
        return 1;
      }
      ++submitted;
    }
    std::vector<EngineResult> cycle = engine->Drain().MoveValue();
    responses.insert(responses.end(),
                     std::make_move_iterator(cycle.begin()),
                     std::make_move_iterator(cycle.end()));
    obs::MetricsRegistry& metrics = engine->metrics();
    const obs::HistogramSnapshot latency =
        metrics.GetHistogram("engine_query_latency_ns")->Snapshot();
    const double span = metrics.GetGauge("engine_span_seconds")->Value();
    std::printf(
        "[stats] queries=%llu qps=%.0f p50=%.2fms p99=%.2fms cache=%.0f%% "
        "sweeps x/h/c=%llu/%llu/%llu shed=%llu retried=%llu dropped=%llu "
        "deadline=%llu slow=%llu\n",
        static_cast<unsigned long long>(latency.count),
        span > 0.0 ? static_cast<double>(latency.count) / span : 0.0,
        static_cast<double>(latency.Quantile(0.50)) * 1e-6,
        static_cast<double>(latency.Quantile(0.99)) * 1e-6,
        engine->cache()->Stats().hit_rate() * 100.0,
        Count(metrics, "engine_sweep_executed_total"),
        Count(metrics, "engine_sweep_hits_total"),
        Count(metrics, "engine_sweep_coalesced_total"),
        Shed(metrics),
        static_cast<unsigned long long>(retried_counter->Value()),
        static_cast<unsigned long long>(dropped_counter->Value()),
        Count(metrics, "engine_deadline_exceeded_total"),
        static_cast<unsigned long long>(engine->tracer().slow_queries()));
  }
  std::printf("\nreplayed %zu requests over %zu distinct queries\n\n",
              submitted, catalogue.size());

  // One sample response per workload kind (first occurrence in the stream).
  std::printf("sample responses:\n");
  bool seen[kNumWorkloadKinds] = {};
  for (const EngineResult& r : responses) {
    bool& done = seen[static_cast<size_t>(r.query.workload)];
    if (done) continue;
    done = true;
    PrintResponse(r);
  }
  obs::MetricsRegistry& metrics = engine->metrics();
  const unsigned long long sweep_queries =
      Count(metrics, "engine_queries_total", "workload", "top-k") +
      Count(metrics, "engine_queries_total", "workload", "reliable-set");
  const CacheStats sweep_cache = engine->sweep_cache()->Stats();
  std::printf(
      "\nsweep sharing: %llu top-k/reliable-set queries -> %llu sweeps "
      "executed, %llu memo hits, %llu coalesced (%zu vectors / %zu KB "
      "resident)\n",
      sweep_queries,
      Count(metrics, "engine_sweep_executed_total"),
      Count(metrics, "engine_sweep_hits_total"),
      Count(metrics, "engine_sweep_coalesced_total"),
      sweep_cache.entries, sweep_cache.bytes_in_use >> 10);
  const obs::HistogramSnapshot sweep_latency =
      metrics.GetHistogram("engine_sweep_latency_ns")->Snapshot();
  std::printf(
      "stratified sweeps: %llu strata executed (%llu stolen by coalesced "
      "waiters), %llu scout warms, per-sweep p50/p95 %.2f/%.2f ms\n",
      Count(metrics, "engine_strata_executed_total"),
      Count(metrics, "engine_strata_stolen_total"),
      Count(metrics, "engine_scout_warms_total"),
      static_cast<double>(sweep_latency.Quantile(0.50)) * 1e-6,
      static_cast<double>(sweep_latency.Quantile(0.95)) * 1e-6);
  std::printf(
      "fault tolerance: %llu shed at admission, %llu client retries, %llu "
      "dropped after backoff, %llu deadline-exceeded\n",
      Shed(metrics),
      static_cast<unsigned long long>(retried_counter->Value()),
      static_cast<unsigned long long>(dropped_counter->Value()),
      Count(metrics, "engine_deadline_exceeded_total"));
  if (engine->prebuilder() != nullptr) {
    std::printf(
        "generation prebuild: %llu requested, %llu built on %zu background "
        "builders, %llu adopted by workers (%zu KB ready pool)\n",
        Count(metrics, "prebuilder_requested_total"),
        Count(metrics, "prebuilder_built_total"),
        engine->prebuilder()->num_builders(),
        Count(metrics, "engine_prebuilt_used_total"),
        engine->prebuilder()->ReadyBytes() >> 10);
  }

  // Span trees of the slowest requests (only when --slow-query-ms armed the
  // tracer).
  const std::vector<std::string> slow_log = engine->tracer().SlowQueryLog();
  if (!slow_log.empty()) {
    std::printf("\nslow queries (> %.3f ms): %llu total, last %zu dumps:\n",
                slow_query_ms,
                static_cast<unsigned long long>(engine->tracer().slow_queries()),
                slow_log.size());
    for (const std::string& dump : slow_log) {
      std::printf("%s\n", dump.c_str());
    }
  }

  // The full registry, Prometheus-style — the same scrape a /metrics
  // endpoint would serve.
  std::printf("\n%s", engine->metrics().ExportText().c_str());

  if (!stats_json_path.empty()) {
    std::ofstream out(stats_json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write stats json to '%s'\n",
                   stats_json_path.c_str());
      return 1;
    }
    out << engine->metrics().ExportJson() << "\n";
    std::printf("\nwrote metrics scrape to %s\n", stats_json_path.c_str());
  }

  // Kill-and-restart cycle (--persist-dir): destroy the engine — its
  // destructor flushes the warm journal, exactly what a clean SIGTERM does —
  // recreate it from disk, and replay a sample of the same Zipf stream. The
  // line this prints is the persistence tier's value proposition in two
  // numbers: the restarted cold-start ms (mmap, not rebuild) and the
  // warm-hit rate yesterday's journaled caches serve today's traffic at.
  if (!persist_dir.empty()) {
    engine.reset();
    Timer restart_timer;
    auto restarted = QueryEngine::Create(dataset.graph, options).MoveValue();
    const double restart_ms = restart_timer.ElapsedSeconds() * 1e3;
    const QueryEngine::WarmRestoreReport& report =
        restarted->warm_restore_report();
    const size_t sample =
        std::min<size_t>(512, std::max<size_t>(64, requests / 4));
    Rng replay_rng(42);  // the same stream head the original replay served
    size_t replayed = 0;
    for (size_t i = 0; i < sample; ++i) {
      const double u = replay_rng.NextDouble() * total;
      size_t pick = 0;
      while (pick + 1 < cumulative.size() && cumulative[pick] < u) ++pick;
      if (restarted->Submit(catalogue[pick]).ok()) ++replayed;
    }
    const std::vector<EngineResult> replay_results =
        restarted->Drain().MoveValue();
    size_t replay_failures = 0;
    for (const EngineResult& r : replay_results) {
      if (!r.ok()) ++replay_failures;
    }
    const CacheStats cache = restarted->cache()->Stats();
    std::printf(
        "\nkill-and-restart cycle: cold start %.1f ms (%s), %llu results + "
        "%llu sweeps restored (%llu skipped%s); %zu-request replay -> "
        "warm-hit rate %.0f%% (%llu hits / %llu lookups), %llu sweep memo "
        "hits, %zu failures\n",
        restart_ms,
        report.snapshot_restored ? "index mmapped from snapshot"
                                 : "index rebuilt from source",
        static_cast<unsigned long long>(report.result_entries),
        static_cast<unsigned long long>(report.sweep_entries),
        static_cast<unsigned long long>(report.skipped),
        report.torn_tail ? ", torn journal tail discarded" : "", replayed,
        cache.hit_rate() * 100.0, static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.lookups()),
        Count(restarted->metrics(), "engine_sweep_hits_total"),
        replay_failures);
  }
  return 0;
}
