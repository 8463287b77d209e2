#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "eval/convergence.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "reliability/estimator_factory.h"

namespace relcomp {

/// \brief Shared configuration for the bench binaries; every knob has an
/// environment override so one `for b in bench/*; do $b; done` loop can be
/// re-run at different scales.
///
/// Environment variables: RELCOMP_SCALE (tiny|small|medium|large),
/// RELCOMP_PAIRS, RELCOMP_REPEATS, RELCOMP_MAX_K, RELCOMP_SEED,
/// RELCOMP_CACHE_DIR (convergence-scan cache shared by the bench binaries;
/// set to empty to disable), RELCOMP_QUIET (suppress progress on stderr).
struct BenchConfig {
  /// Default tiny: the full 6x6 convergence matrix with BFS Sharing in it is
  /// exactly as expensive as the paper reports (its Tables 9-14 run to
  /// thousands of seconds per query on a server); tiny keeps the whole bench
  /// suite in minutes while preserving every ordering. Use
  /// RELCOMP_SCALE=small|medium|large to grow.
  Scale scale = Scale::kTiny;
  uint32_t num_pairs = 15;   ///< paper: 100
  uint32_t repeats = 10;     ///< paper: T = 100
  uint32_t initial_k = 250;  ///< paper protocol
  uint32_t step_k = 250;
  uint32_t max_k = 2000;
  double dispersion_threshold = 1e-3;
  uint64_t seed = 20190410;  ///< arXiv date of the paper
  /// Directory for cached convergence scans ("" = no cache). Benches share
  /// one matrix of scans; the first binary pays, the rest reuse.
  std::string cache_dir = ".relcomp_cache";
  /// Progress lines on stderr while scanning.
  bool verbose = true;

  static BenchConfig FromEnv();

  ConvergenceOptions MakeConvergenceOptions(bool stop_at_convergence = true) const;
  /// One-line description printed at the top of every bench.
  std::string Describe() const;
};

/// \brief Caches datasets, workloads, MC ground truths, and convergence runs
/// so a bench binary touching several tables does each expensive step once.
class ExperimentContext {
 public:
  explicit ExperimentContext(BenchConfig config) : config_(std::move(config)) {}

  const BenchConfig& config() const { return config_; }

  /// Generates (and caches) the dataset.
  Result<const Dataset*> GetDataset(DatasetId id);

  /// The workload of s-t pairs at `hop_distance` (cached per (id, h)).
  Result<const std::vector<ReliabilityQuery>*> GetQueries(DatasetId id,
                                                          uint32_t hop_distance = 2);

  /// Builds an estimator of `kind` over the dataset (cached; index built
  /// once per binary).
  Result<Estimator*> GetEstimator(DatasetId id, EstimatorKind kind);

  /// Full convergence scan for (dataset, estimator) at h = 2 (cached).
  /// `full_curve` keeps scanning past convergence (Figure 7/9-11 traces).
  Result<const ConvergenceReport*> GetConvergence(DatasetId id, EstimatorKind kind,
                                                  bool full_curve = false);

  /// Per-pair MC reliability at MC's convergence: the ground truth of
  /// Eq. 14 (cached).
  Result<const std::vector<double>*> GetGroundTruth(DatasetId id);

 private:
  BenchConfig config_;
  std::map<int, Dataset> datasets_;
  std::map<std::pair<int, uint32_t>, std::vector<ReliabilityQuery>> queries_;
  std::map<std::pair<int, int>, std::unique_ptr<Estimator>> estimators_;
  std::map<std::tuple<int, int, bool>, ConvergenceReport> convergence_;
  std::map<int, std::vector<double>> ground_truth_;
};

}  // namespace relcomp
