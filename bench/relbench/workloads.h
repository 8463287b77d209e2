#pragma once

// The four relbench workloads: what each runs, at which size, under which
// load shape, and the generator that turns the workload seed into the query
// list every repetition replays. README.md says why each one was chosen.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "engine/query_engine.h"
#include "graph/datasets.h"
#include "reliability/workload.h"

namespace relbench {

/// Worker threads of every engine, the serving workload's callers, and the
/// width of every helper pool the benchmark runs outside the timed phase
/// (reference, replay). Half of a 4-vCPU host: with a worker on every vCPU,
/// each preemption by another tenant stalls a worker, and the same run
/// spread two to four times wider (README.md, "Noise on this host").
inline constexpr size_t kThreads = 2;

/// Dataset and engine seeds stay fixed; only the inputs follow --seed.
inline constexpr uint64_t kDatasetSeed = 20190410;

using QueryGenerator = std::vector<relcomp::EngineQuery> (*)(
    const relcomp::UncertainGraph& graph, uint64_t seed, size_t count);

struct WorkloadSpec {
  const char* name;
  relcomp::DatasetId dataset;
  relcomp::Scale scale;
  relcomp::EstimatorKind kind;
  uint32_t num_samples;  ///< K
  uint32_t num_strata;   ///< S
  size_t chunk;    ///< queries per RunBatch call (1 for serving)
  size_t callers;  ///< caller threads, each a closed loop of RunBatch calls
  size_t queries_per_rep;
  size_t smoke_queries;  ///< queries per rep under --smoke (tiny scale)
  /// The percentile latency_tail_ms reports: one of p99/p95/p90/p75 with at
  /// least ten calls beyond it within one repetition (the highest such,
  /// except where workloads.cc says why not).
  double tail_quantile;
  /// Distinct scalar queries whose reference is sampled to pick the
  /// accuracy panel (the first 100 with R_ref >= 0.01).
  size_t panel_candidates;
  QueryGenerator generate;
};

const std::vector<WorkloadSpec>& Workloads();

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

relcomp::EngineOptions EngineOptionsFor(const WorkloadSpec& spec);

}  // namespace relbench
