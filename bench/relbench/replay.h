#pragma once

// The traced run's replay: every distinct query the engine computed is run
// again on a bare estimator of the engine's kind, with the engine's own
// plan and seeds (PlanFor / QuerySeed / PrepareSeed), one query per thread at
// a time. The answers must match the engine's bit for bit; the spans around
// each estimator call give the per-layer kernel costs.

#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "spans.h"

namespace relbench {

struct ReplayOutcome {
  size_t replayed = 0;    ///< distinct computed queries re-run
  size_t mismatches = 0;  ///< answers that differ from the engine's
  uint64_t samples = 0;   ///< samples consumed by the s-t Estimate calls
  /// MakeEstimator wall, one per replica (index build for index kinds).
  std::vector<double> index_build_s;
};

/// Replays the distinct OK queries of `results` on `threads` bare replicas
/// built from `options`. Span buffers are appended to `spans`; replay spans
/// carry the query's index in `results` as their request id.
ReplayOutcome Replay(const relcomp::QueryEngine& engine,
                     const relcomp::UncertainGraph& graph,
                     const relcomp::EngineOptions& options,
                     const std::vector<relcomp::EngineResult>& results,
                     size_t threads,
                     std::vector<std::unique_ptr<SpanBuffer>>* spans);

}  // namespace relbench
