#pragma once

#include <memory>
#include <vector>

#include "graph/subgraph.h"
#include "reliability/distance_constrained.h"
#include "reliability/estimator.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

class Rng;

/// \brief How the next expandable edge is chosen (Alg. 4 line 9). The paper
/// follows [20]'s experimentally optimal DFS expansion; the alternatives are
/// kept for the ablation bench.
enum class EdgeSelectionStrategy {
  kDfs = 0,  ///< first undetermined out-edge along a depth-first expansion
  kBfs,      ///< first undetermined out-edge in breadth-first order
  kRandom,   ///< uniform over all expandable undetermined edges
};

/// \brief Options for recursive (Hansen–Hurwitz style) sampling.
struct RecursiveSamplingOptions {
  /// When a branch's sample budget drops to this threshold or below, the
  /// branch is finished with non-recursive MC sampling (Alg. 4 lines 1-2).
  /// The paper finds 5 optimal for both recursive methods (Figure 16).
  uint32_t threshold = 5;
  /// Next-edge policy; kDfs reproduces the paper.
  EdgeSelectionStrategy selection = EdgeSelectionStrategy::kDfs;
};

/// \brief Recursive sampling "RHH" (Algorithm 4; Jin et al. [20], adapted
/// from distance-constrained to plain s-t reliability).
///
/// Divide and conquer over edge existence: pick an expandable edge e by DFS
/// from the certainly-reached component, condition on e, and split the
/// sample budget deterministically — K1 = floor(P(e) K) to the inclusion
/// branch, K - K1 to the exclusion branch — which removes e's sampling
/// uncertainty and provably reduces variance (Theorem 2 in [20]). Branches
/// terminate on an s-t path of included edges (R = 1), an s-t cut of
/// excluded edges (R = 0), or budget <= threshold (plain MC on the residual).
class RecursiveEstimator : public Estimator {
 public:
  RecursiveEstimator(const UncertainGraph& graph,
                     const RecursiveSamplingOptions& options = {});

  std::string_view name() const override { return "RHH"; }
  const UncertainGraph& graph() const override { return graph_; }

  /// Distance-constrained dispatch via the depth-bounded recursive sampler
  /// of distance_constrained.h — the query this algorithm was originally
  /// designed for [20] (same threshold as the s-t configuration; the
  /// sampler is built on first use so s-t-only replicas pay nothing).
  EstimatorCapabilities capabilities() const override {
    return {.distance = true};
  }
  Result<double> EstimateDistanceConstrained(
      const ReliabilityQuery& query, uint32_t max_hops,
      const EstimateOptions& options) override {
    if (distance_ == nullptr) {
      distance_ = std::make_unique<DistanceConstrainedRecursive>(
          graph_, options_.threshold);
    }
    return distance_->Estimate(
        DistanceConstrainedQuery{query.source, query.target, max_hops},
        options.num_samples, options.seed, options.memory);
  }

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  friend class RecursiveEstimatorTestPeer;  // sets epoch_ to test the wrap

  double Recurse(NodeId s, NodeId t, uint32_t k, std::vector<EdgeState>& states,
                 Rng& rng, MemoryTracker* memory, size_t depth);
  /// Starts a new reachability check: advances epoch_, clearing the marks
  /// when it wraps.
  void NextEpoch();
  /// Non-recursive base case: MC over the residual graph conditioned on
  /// `states` (included edges always exist, excluded never, the rest tossed).
  double BaseMonteCarlo(NodeId s, NodeId t, uint32_t k,
                        const std::vector<EdgeState>& states, Rng& rng);

  const UncertainGraph& graph_;
  RecursiveSamplingOptions options_;
  std::unique_ptr<DistanceConstrainedRecursive> distance_;
  // Scratch shared by the reachability checks and edge selection.
  std::vector<uint32_t> visit_epoch_;
  std::vector<NodeId> queue_;
  std::vector<EdgeId> candidates_;  // kRandom strategy candidate pool
  uint32_t epoch_ = 0;
  size_t max_depth_seen_ = 0;
  // Base-case sampling over the conditioned residual graph.
  LazySamplingBfs sampler_;
};

}  // namespace relcomp
