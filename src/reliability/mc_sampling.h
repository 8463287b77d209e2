#pragma once

#include <memory>
#include <vector>

#include "reliability/distance_constrained.h"
#include "reliability/estimator.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

/// \brief Per-node reliability from `source`: K sampled worlds, one full
/// lazy-sampling BFS each (LazySamplingBfs, no early target exit), per-node
/// hit counting. O(K (m + n)), no index.
///
/// This is the single sweep core behind TopKReliableTargetsMonteCarlo,
/// ReliableSetMonteCarlo, and MonteCarloEstimator::EstimateFromSource (the
/// engine's dispatch path) — one implementation, so all three produce
/// bit-identical per-node reliabilities for equal (source, num_samples,
/// seed, num_strata).
///
/// `num_strata` partitions the budget into S fixed strata (stratum j draws
/// StratumSampleCount(K, S, j) samples from Rng(StratumSeed(seed, j, S)))
/// and merges their hit counts in stratum order: the result is a canonical
/// function of (source, K, seed, S), identical whether the strata run
/// back-to-back here or spread across engine workers. S <= 1 is the legacy
/// unstratified sweep, bit-identical to the pre-strata behaviour.
Result<std::vector<double>> MonteCarloReliabilityFromSource(
    const UncertainGraph& graph, NodeId source, uint32_t num_samples,
    uint64_t seed, uint32_t num_strata = 1);

/// \brief Basic Monte Carlo sampling with BFS and lazy edge sampling
/// (Algorithm 1 of the paper; hit-and-miss Monte Carlo [12]).
///
/// Per sample: BFS from s; each edge is tossed with probability P(e) the
/// first time the BFS reaches its tail; the sample terminates early as soon
/// as t is visited. Unbiased; variance R(1-R)/K (Eq. 4); time O(K(m+n)).
/// Both the s-t estimate and the source sweep honor
/// EstimateOptions::num_strata (see MonteCarloReliabilityFromSource).
class MonteCarloEstimator : public Estimator {
 public:
  explicit MonteCarloEstimator(const UncertainGraph& graph);

  std::string_view name() const override { return "MC"; }
  const UncertainGraph& graph() const override { return graph_; }

  EstimatorCapabilities capabilities() const override {
    return {.sweep = true, .distance = true, .st_strata = true};
  }

  /// Source sweep for top-k / reliable-set dispatch (the shared
  /// MonteCarloReliabilityFromSource core, stratified when
  /// options.num_strata > 1).
  Result<std::vector<double>> EstimateFromSource(
      NodeId source, const EstimateOptions& options) override;

  /// One stratum of the sweep above, as raw hit counts: the engine's
  /// work-stealing currency. Merging all strata == EstimateFromSource with
  /// the same num_strata, bit for bit.
  Result<std::vector<uint32_t>> EstimateSweepStratumHits(
      NodeId source, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options) override;

  /// One stratum of the s-t estimate, as a hit count: the stratum body
  /// DoEstimate's serial loop runs. Summing all strata and dividing by K ==
  /// Estimate with the same num_strata, bit for bit.
  Result<uint32_t> EstimateStStratumHits(
      const ReliabilityQuery& query, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options) override;

  /// Distance-constrained dispatch via the depth-bounded sampler of
  /// distance_constrained.h (per-replica scratch, reused across queries).
  Result<double> EstimateDistanceConstrained(
      const ReliabilityQuery& query, uint32_t max_hops,
      const EstimateOptions& options) override;

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  /// Hits of stratum `stratum` of `num_strata` of the s-t estimate of
  /// `query` (s != t): StratumSampleCount(K, S, stratum) worlds from
  /// Rng(StratumSeed(seed, stratum, S)); 0 for an empty stratum.
  Result<uint32_t> StStratumHits(const ReliabilityQuery& query,
                                 uint32_t stratum, uint32_t num_strata,
                                 const EstimateOptions& options);

  const UncertainGraph& graph_;
  // The lazy-sampling BFS behind both the s-t estimate and the sweeps.
  LazySamplingBfs sampler_;
  // Sweep hit counts, reused across EstimateFromSource calls (hot serving
  // paths never re-allocate).
  std::vector<uint32_t> sweep_hits_;
  // Depth-bounded sampler for distance queries, built on first use so pure
  // s-t / sweep replicas pay nothing for it.
  std::unique_ptr<DistanceConstrainedMonteCarlo> distance_;
};

}  // namespace relcomp
