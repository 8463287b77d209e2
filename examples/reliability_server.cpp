// reliability_server: replays a generated mixed workload through the
// concurrent QueryEngine, the way a serving frontend would — a Zipf-skewed
// stream of repeated parametrized requests spanning the workload kinds the
// estimator answers (s-t, top-k and reliable-set, plus distance-constrained
// for MC; BFS Sharing has no distance estimator, and ProbTree answers s-t
// only), worker-thread estimator
// replicas, a result cache absorbing the hot keys, and the sweep-sharing
// layer collapsing every top-k / reliable-set parameterization of one hot
// source into a single per-source sweep. The catalogue deliberately asks for
// two different k and eta per source so the sweep sharing is visible in the
// printed stats.
//
// Overload never refuses a request: Submit blocks while the engine's bounded
// work queue is full (backpressure), so the client never outruns the
// workers.
//
//   ./build/examples/reliability_server [dataset] [threads] [requests] [kind]
//                                       [strata] [--stats-json <path>]
//                                       [--slow-query-ms <n>]
//                                       [--deadline-ms <n>]
//                                       [--persist-dir <path>]
//
//   dataset  : lastfm | nethept | astopo | dblp02 | dblp005 | biomine
//   threads  : worker threads (default 4)
//   requests : total stream length (default 2000)
//   kind     : mc | bfs | probtree (default mc; bfs also exercises the
//              coin-pass helpers of its inline prepares, probtree the index
//              snapshot under --persist-dir)
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
//   --persist-dir <path>  : keep the ProbTree index in a checksummed
//                           snapshot under <path> (src/persist/; mc has no
//                           index and bfs builds no generation at startup,
//                           so both write nothing there). The startup line
//                           reports the cold-start time and whether the
//                           index came from the snapshot or a rebuild;
//                           after the replay the server destroys the
//                           engine, recreates it from disk and reports the
//                           restarted cold start. Run the binary twice with
//                           the same flags to see a cross-process restart:
//                           the second run's *initial* cold start already
//                           restores the index.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
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

/// Where Create got the shared index from, as the engine's registry counts
/// it. Only for an engine with a snapshot store.
const char* IndexSource(obs::MetricsRegistry& registry) {
  return Count(registry, "persist_recovered_total", "source", "snapshot") > 0
             ? "index restored from snapshot"
             : "index rebuilt from source, snapshot published";
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional, in order.
  std::string stats_json_path;
  std::string persist_dir;
  double slow_query_ms = 0.0;
  double deadline_ms = 0.0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
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
    } else if (std::strcmp(positional[3], "probtree") == 0) {
      kind = EstimatorKind::kProbTree;
    } else if (std::strcmp(positional[3], "mc") != 0) {
      std::fprintf(stderr, "unknown kind '%s', using mc\n", positional[3]);
    }
  }
  const long strata_arg = positional.size() > 4 ? std::atol(positional[4]) : 8;
  if (threads_arg < 0 || threads_arg > 1024 || requests_arg < 0 ||
      strata_arg < 1 || strata_arg > 4096 || slow_query_ms < 0 ||
      deadline_ms < 0) {
    std::fprintf(stderr,
                 "usage: reliability_server [dataset] [threads 0-1024] "
                 "[requests >= 0] [mc|bfs|probtree] [strata 1-4096] "
                 "[--stats-json <path>] [--slow-query-ms <n>] "
                 "[--deadline-ms <n>] [--persist-dir <path>]\n");
    return 2;
  }
  const size_t threads = static_cast<size_t>(threads_arg);
  const size_t requests = static_cast<size_t>(requests_arg);

  Dataset dataset = MakeDataset(dataset_id, Scale::kSmall, 20190410).MoveValue();
  std::printf("serving %s: %s\n", dataset.name.c_str(),
              dataset.graph.Describe().c_str());

  // The catalogue of distinct queries users may ask — a mixed-workload
  // stream over the paper's h=2 pairs — hit with a skewed popularity
  // distribution. It asks no query the estimator cannot answer, which would
  // only fail NotSupported: BFS Sharing has no distance-constrained
  // estimator, and ProbTree answers s-t queries only.
  MixedWorkloadOptions mix;
  if (kind != EstimatorKind::kMonteCarlo) mix.distance_weight = 0.0;
  if (kind == EstimatorKind::kProbTree) {
    mix.top_k_weight = 0.0;
    mix.reliable_set_weight = 0.0;
  }
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
  options.persist_dir = persist_dir;
  Timer cold_start;
  auto engine = QueryEngine::Create(dataset.graph, options).MoveValue();
  const double cold_start_ms = cold_start.ElapsedSeconds() * 1e3;
  if (engine->persist_store() != nullptr) {
    std::printf("persistence: dir %s, cold start %.1f ms (%s)\n",
                persist_dir.c_str(), cold_start_ms,
                IndexSource(engine->metrics()));
  } else if (!persist_dir.empty()) {
    std::printf("persistence: dir %s unused, the %s estimator has no index "
                "to persist\n",
                persist_dir.c_str(), EstimatorKindName(kind));
  }
  std::printf(
      "engine up: %s estimator, %zu workers, S=%u strata per sweep, cache "
      "%zu entries / %zu MB, sweep cache %zu MB, coin-pass helpers %s, "
      "K=%u\n\n",
      EstimatorKindName(kind), engine->num_threads(), options.num_strata,
      options.cache_capacity, options.cache_max_bytes >> 20,
      options.sweep_cache_max_bytes >> 20,
      engine->coin_pass_helpers() != nullptr
          ? StrFormat("%zu threads",
                      engine->coin_pass_helpers()->num_helpers())
                .c_str()
          : "none (kind has no prepared generations)",
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
  size_t submitted = 0;
  std::vector<EngineResult> responses;
  while (submitted < requests) {
    const size_t batch = std::min(cycle_len > 0 ? cycle_len : size_t{1},
                                  requests - submitted);
    for (size_t i = 0; i < batch; ++i) {
      const double u = rng.NextDouble() * total;
      size_t pick = 0;
      while (pick + 1 < cumulative.size() && cumulative[pick] < u) ++pick;
      const Status status = engine->Submit(catalogue[pick]);
      if (!status.ok()) {
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
        "sweeps x/h/c=%llu/%llu/%llu deadline=%llu slow=%llu\n",
        static_cast<unsigned long long>(latency.count),
        span > 0.0 ? static_cast<double>(latency.count) / span : 0.0,
        static_cast<double>(latency.Quantile(0.50)) * 1e-6,
        static_cast<double>(latency.Quantile(0.99)) * 1e-6,
        engine->cache()->Stats().hit_rate() * 100.0,
        Count(metrics, "engine_sweep_executed_total"),
        Count(metrics, "engine_sweep_hits_total"),
        Count(metrics, "engine_sweep_coalesced_total"),
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
      "waiters), per-sweep p50/p95 %.2f/%.2f ms\n",
      Count(metrics, "engine_strata_executed_total"),
      Count(metrics, "engine_strata_stolen_total"),
      static_cast<double>(sweep_latency.Quantile(0.50)) * 1e-6,
      static_cast<double>(sweep_latency.Quantile(0.95)) * 1e-6);
  std::printf("fault tolerance: %llu deadline-exceeded, %llu failed\n",
              Count(metrics, "engine_deadline_exceeded_total"),
              Count(metrics, "engine_failures_total"));
  if (engine->coin_pass_helpers() != nullptr) {
    std::printf(
        "inline prepares: %llu coin fills tossed by %zu helper threads, "
        "%zu KB of generations resident\n",
        Count(metrics, "coin_pass_helped_fills_total"),
        engine->coin_pass_helpers()->num_helpers(),
        engine->IndexMemory().total_bytes() >> 10);
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

  // Restart cycle (--persist-dir, ProbTree): destroy the engine and
  // recreate it from disk; its cold start restores the index the first
  // Create published instead of rebuilding it.
  if (engine->persist_store() != nullptr) {
    engine.reset();
    Timer restart_timer;
    auto restarted = QueryEngine::Create(dataset.graph, options).MoveValue();
    std::printf("\nrestart: cold start %.1f ms (%s)\n",
                restart_timer.ElapsedSeconds() * 1e3,
                IndexSource(restarted->metrics()));
  }
  return 0;
}
