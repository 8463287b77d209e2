#pragma once

// The load generator: builds one repetition's dataset and engine, then runs
// the workload's closed loop against it and records what a caller sees.

#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "graph/datasets.h"
#include "registry.h"
#include "spans.h"
#include "workloads.h"

namespace relbench {

/// A repetition's system under test. The dataset is heap-held because the
/// engine keeps a reference to its graph.
struct RepSetup {
  std::unique_ptr<relcomp::Dataset> dataset;
  std::unique_ptr<relcomp::QueryEngine> engine;
  double dataset_s = 0.0;  ///< MakeDataset wall
  double create_s = 0.0;   ///< QueryEngine::Create wall (index build included)
};

relcomp::Result<RepSetup> SetUp(const WorkloadSpec& spec, relcomp::Scale scale);

struct RepOutcome {
  double wall_s = 0.0;  ///< first call issued -> last reply received
  double cpu_s = 0.0;   ///< process user + system CPU over the same phase
  std::vector<double> call_ms;  ///< one entry per engine call
  /// AnswerDigest of each query's answer, in input order. Digests, not the
  /// answers, so the benchmark's own bookkeeping stays small next to the
  /// engine's memory in peak_rss_mb.
  std::vector<uint64_t> digests;
  /// The answers themselves, in input order: traced repetitions only (the
  /// replay needs them). A chunk whose RunBatch failed as a whole carries
  /// that status on each of its queries.
  std::vector<relcomp::EngineResult> results;
  size_t ok = 0;
  double engine_busy_s = 0.0;  ///< sum of EngineResult::seconds
  Scrape before;               ///< registry after Create
  Scrape after;                ///< registry after the last reply
};

/// Runs one repetition over `queries`. With `spans` non-null the repetition
/// is traced and keeps its answers: buffer 0 (created here when empty) gets
/// the bench.rep span, and each caller records its bench.call spans into a
/// buffer of its own, appended to `spans`.
RepOutcome Drive(const WorkloadSpec& spec, relcomp::QueryEngine& engine,
                 const std::vector<relcomp::EngineQuery>& queries,
                 std::vector<std::unique_ptr<SpanBuffer>>* spans);

/// A 64-bit digest of an answer's bits: status code, scalar, and ranked
/// targets. Equal answers have equal digests.
uint64_t AnswerDigest(const relcomp::EngineResult& result);

/// Process user + system CPU seconds so far (all threads).
double ProcessCpuSeconds();

/// Returns freed heap to the system, then restarts the peak-resident-set
/// watermark at the current resident set (Linux /proc/self/clear_refs; a
/// no-op where that is unavailable).
void ResetPeakRss();

/// Peak resident set of this process since the last ResetPeakRss (or since
/// start), in MiB.
double PeakRssMiB();

}  // namespace relbench
