#pragma once

#include <vector>

#include "graph/subgraph.h"
#include "reliability/estimator.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

class Rng;

/// \brief Distance-constrained s-t reliability R_d(s, t): the probability
/// that t is reachable from s within at most `max_hops` hops.
///
/// This is the query Jin et al. [20] originally designed recursive sampling
/// for (the paper's Section 2.4 adapts it to the unconstrained case; this
/// module keeps the original semantics available). Setting
/// max_hops >= n - 1 recovers plain s-t reliability.
struct DistanceConstrainedQuery {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
  uint32_t max_hops = 0;
};

/// \brief Monte Carlo estimator for R_d(s, t): per sample, a lazily-sampled
/// BFS that stops expanding past `max_hops` levels (unbiased; variance
/// R_d (1 - R_d) / K).
class DistanceConstrainedMonteCarlo {
 public:
  explicit DistanceConstrainedMonteCarlo(const UncertainGraph& graph);

  /// Estimates R_d(s, t) with `num_samples` samples. `memory`, when given,
  /// receives the call's working-set accounting (the sampler's scratch).
  Result<double> Estimate(const DistanceConstrainedQuery& query,
                          uint32_t num_samples, uint64_t seed,
                          MemoryTracker* memory = nullptr);

 private:
  const UncertainGraph& graph_;
  LazySamplingBfs sampler_;
};

/// \brief Recursive (RHH-style) estimator for R_d(s, t): conditions on
/// DFS-chosen edges exactly like Algorithm 4, but the path / cut / base-case
/// checks are all depth-bounded.
class DistanceConstrainedRecursive {
 public:
  DistanceConstrainedRecursive(const UncertainGraph& graph,
                               uint32_t threshold = 5);

  /// `memory`, when given, receives the call's working-set accounting (edge
  /// states, epoch marks, BFS queue, depth array, sampler scratch).
  Result<double> Estimate(const DistanceConstrainedQuery& query,
                          uint32_t num_samples, uint64_t seed,
                          MemoryTracker* memory = nullptr);

 private:
  friend class DistanceConstrainedRecursiveTestPeer;  // sets epoch_

  double Recurse(const DistanceConstrainedQuery& query, uint32_t k,
                 std::vector<EdgeState>& states, Rng& rng);
  /// Starts a new bounded search: advances epoch_, clearing the marks when
  /// it wraps.
  void NextEpoch();
  double BaseMonteCarlo(const DistanceConstrainedQuery& query, uint32_t k,
                        const std::vector<EdgeState>& states, Rng& rng);
  /// Hop distance from s to t over edges whose state passes `keep`;
  /// kInvalidDistance if unreachable.
  template <typename KeepFn>
  uint32_t BoundedDistance(NodeId s, NodeId t, uint32_t max_hops,
                           const std::vector<EdgeState>& states, KeepFn keep);
  /// First undetermined out-edge of the included-edge component truncated at
  /// `max_hops` (DFS order); kInvalidEdge if none.
  EdgeId SelectEdge(const DistanceConstrainedQuery& query,
                    const std::vector<EdgeState>& states);

  const UncertainGraph& graph_;
  uint32_t threshold_;
  std::vector<uint32_t> visit_epoch_;
  std::vector<NodeId> queue_;
  std::vector<uint32_t> depth_;
  uint32_t epoch_ = 0;
  // Conditioned, depth-bounded base-case sampling.
  LazySamplingBfs sampler_;
};

/// \brief Exact R_d(s, t) by enumerating all 2^m worlds (tiny graphs; test
/// oracle for both estimators above).
Result<double> ExactDistanceConstrainedReliability(const UncertainGraph& graph,
                                                   const DistanceConstrainedQuery&
                                                       query,
                                                   uint32_t max_edges = 24);

}  // namespace relcomp
