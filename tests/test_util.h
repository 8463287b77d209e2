#pragma once

#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp::testing {

/// Aborts the whole process if the guarded scope outlives `limit` — a hung
/// concurrency test must fail loudly instead of wedging the test binary.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_.wait_for(lock, limit, [this] { return disarmed_; })) {
            std::fprintf(stderr, "Watchdog: scope hung for %llds\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    done_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  bool disarmed_ = false;
  std::thread thread_;
};

/// A path named `name` in the system temp directory, prefixed with this
/// process's id: two test processes running at once (say an ASan and a TSan
/// build side by side) never write, read or remove each other's files.
inline std::string ScratchPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Overwrites sizeof(T) bytes of the file at `path` at `offset` with `value`
/// (host byte order): forges one header field of a binary file.
template <typename T>
void PatchFile(const std::string& path, size_t offset, T value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(file.good()) << path;
}

/// Builds a graph from "u v p" lines; aborts the test on malformed input.
inline UncertainGraph GraphFromString(const std::string& edge_list) {
  Result<UncertainGraph> result = ParseEdgeListString(edge_list);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.MoveValue();
}

/// The paper's Figure 4 toy graph: 1 -> 2 -> 3 as a line (renumbered 0-2).
inline UncertainGraph LineGraph3(double p1 = 0.5, double p2 = 0.5) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, p1).CheckOK();
  b.AddEdge(1, 2, p2).CheckOK();
  return b.Build().MoveValue();
}

/// Two disjoint parallel s-t paths of length 2 (diamond):
/// 0 -> 1 -> 3 and 0 -> 2 -> 3. Exact R(0,3) = 1 - (1 - p^2)^2 for equal p.
inline UncertainGraph DiamondGraph(double p = 0.5) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, p).CheckOK();
  b.AddEdge(1, 3, p).CheckOK();
  b.AddEdge(0, 2, p).CheckOK();
  b.AddEdge(2, 3, p).CheckOK();
  return b.Build().MoveValue();
}

/// The paper's Figure 6(a) uncertain graph (7 nodes, used to validate the
/// ProbTree construction against the worked example).
///
/// Edges (directed pairs, both directions share the probability):
///   0-1: 0.5, 0-2: 0.75, 1-2: 0.5, 1-6: 0.75, 2-6: 0.5 (only 2->6... )
/// The figure is reproduced as a bidirected approximation of the drawing;
/// the key structural facts the tests rely on are bag {3,4}, bag {4,0,6},
/// and the 6->1 aggregation 1-(1-0.75)(1-0.5*0.5) = 0.8125.
inline UncertainGraph Figure6Graph() {
  GraphBuilder b(7);
  // 6 -> 1 direct with 0.75 and 6 -> 2 -> 1 with 0.5 * 0.5 (bag (D) example).
  b.AddEdge(6, 1, 0.75).CheckOK();
  b.AddEdge(6, 2, 0.5).CheckOK();
  b.AddEdge(2, 1, 0.5).CheckOK();
  b.AddEdge(1, 0, 0.75).CheckOK();
  b.AddEdge(0, 6, 0.25).CheckOK();   // absorbed with node 4's bag region
  b.AddEdge(0, 4, 0.75).CheckOK();
  b.AddEdge(4, 6, 0.81).CheckOK();
  b.AddEdge(3, 4, 0.5).CheckOK();    // node 3: degree 1, first bag
  b.AddEdge(1, 5, 0.75).CheckOK();   // node 5: degree 1
  // Node 2 keeps skeleton degree 2 ({1, 6}) so the decomposition forms the
  // paper's bag (D) covering 2 and aggregates 6 -> 1.
  return b.Build().MoveValue();
}

/// Random small digraph for oracle sweeps: n nodes, m edges, probabilities
/// uniform in [p_lo, p_hi].
inline UncertainGraph RandomSmallGraph(uint32_t n, uint32_t m, double p_lo,
                                       double p_hi, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  uint32_t added = 0;
  uint32_t guard = 0;
  while (added < m && guard < 100 * m + 100) {
    ++guard;
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    const double p = p_lo + (p_hi - p_lo) * rng.NextDouble();
    b.AddEdge(u, v, p).CheckOK();
    ++added;
  }
  return b.Build().MoveValue();
}

/// A graph whose sampled worlds are slow to search from any node but the
/// last: 60 nodes joined by 400 random edges with p in [0.5, 0.9], and node
/// 60, reached only from node 59 with p = 0.02. A sample of an s-t query to
/// node 60 almost never stops early, so it walks most of the dense part,
/// and its reliability is small but not 0. Engine tests that need strata
/// long enough for helper threads to join, or for a deadline to expire
/// inside them, query it.
inline UncertainGraph SlowToSearchGraph(uint64_t seed) {
  constexpr uint32_t kDense = 60;
  Rng rng(seed);
  GraphBuilder builder(kDense + 1);
  for (uint32_t added = 0; added < 400;) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(kDense));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(kDense));
    if (u == v) continue;
    builder.AddEdge(u, v, 0.5 + 0.4 * rng.NextDouble()).CheckOK();
    ++added;
  }
  builder.AddEdge(kDense - 1, kDense, 0.02).CheckOK();
  return builder.Build().MoveValue();
}

/// Binomial-style tolerance: z standard errors of a proportion estimate at
/// `k` samples (used to make oracle assertions tight but non-flaky).
inline double SamplingTolerance(double truth, uint32_t k, double z = 4.0) {
  const double variance = truth * (1.0 - truth) / static_cast<double>(k);
  return z * std::sqrt(variance) + 1e-9;
}

/// Value of the registry counter `name` (one labelled member of its family
/// when `label_key` is set): tests read the instruments a scrape exports.
inline uint64_t CounterValue(obs::MetricsRegistry& registry,
                             std::string_view name,
                             std::string_view label_key = {},
                             std::string_view label_value = {}) {
  return registry.GetCounter(name, label_key, label_value)->Value();
}

/// Queries an engine recorded, however each resolved: the count of its
/// engine_query_latency_ns histogram.
inline uint64_t QueriesRecorded(obs::MetricsRegistry& registry) {
  return registry.GetHistogram("engine_query_latency_ns")->Snapshot().count;
}

/// What a bare estimator answers for each of `queries` under `engine`'s plan
/// and seeds — the replay rule relbench checks every computed query with. One
/// estimator of the plan's kind, built apart from the engine's replicas, is
/// re-armed with PrepareSeed before each query and answers it directly:
/// s-t through Estimate, distance through EstimateDistanceConstrained, a
/// sweep kind through EstimateFromSource with the plan's S and then
/// DeriveFromSweep. A (kind, workload) pair the kind cannot answer gets the
/// estimator's own NotSupported. Every engine answer, however the engine
/// served it (computed, cached, coalesced, from stolen strata or a flight's
/// generation), must equal this one: status code, payload bits,
/// num_samples and seed.
inline std::vector<EngineResult> BareEstimatorAnswers(
    const QueryEngine& engine, const UncertainGraph& graph,
    const std::vector<EngineQuery>& queries) {
  std::vector<EngineResult> answers(queries.size());
  Result<std::unique_ptr<Estimator>> made =
      MakeEstimator(engine.options().kind, graph, engine.options().factory);
  EXPECT_TRUE(made.ok()) << made.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery& query = queries[i];
    EngineResult& answer = answers[i];
    answer.query = query;
    answer.seed = engine.QuerySeed(query);
    if (!made.ok()) {
      answer.status = made.status();
      continue;
    }
    Estimator& estimator = **made;
    const QueryPlan plan = engine.PlanFor(query);
    EstimateOptions options;
    options.num_samples = plan.num_samples;
    options.seed = answer.seed;
    options.num_strata = plan.num_strata;
    answer.status = estimator.PrepareForNextQuery(engine.PrepareSeed(query));
    if (!answer.status.ok()) continue;
    if (IsSweepWorkload(query.workload)) {
      Result<std::vector<double>> sweep =
          estimator.EstimateFromSource(query.source, options);
      answer.status = sweep.status();
      if (!sweep.ok()) continue;
      WorkloadResult derived =
          DeriveFromSweep(query, *sweep, plan.num_samples);
      answer.targets = std::move(derived.targets);
      answer.num_samples = derived.num_samples;
    } else if (query.workload == WorkloadKind::kDistance) {
      Result<double> value = estimator.EstimateDistanceConstrained(
          query.AsSt(), query.max_hops, options);
      answer.status = value.status();
      if (!value.ok()) continue;
      answer.reliability = *value;
      answer.num_samples = plan.num_samples;
    } else {
      Result<EstimateResult> value = estimator.Estimate(query.AsSt(), options);
      answer.status = value.status();
      if (!value.ok()) continue;
      answer.reliability = value->reliability;
      answer.num_samples = value->num_samples;
    }
  }
  return answers;
}

/// FNV-1a over 64-bit words: the golden-answer tests pin the exact bits of
/// estimator outputs and sampled worlds through it.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(const std::vector<double>& values) {
    for (double v : values) Add(v);
  }
  void Add(const std::vector<uint32_t>& values) {
    for (uint32_t v : values) Add(static_cast<uint64_t>(v));
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

}  // namespace relcomp::testing
