#pragma once

#include <vector>

#include "graph/subgraph.h"
#include "reliability/estimator.h"

namespace relcomp {

class Rng;

/// \brief Options for recursive stratified sampling.
struct RssOptions {
  /// r: number of edges selected per stratification level (Table 1). The
  /// paper recommends r = 50 and finds running time insensitive to it
  /// (Figure 17).
  uint32_t num_strata = 50;
  /// Budget below which a stratum is finished with plain MC (Alg. 5 line 2).
  uint32_t threshold = 5;
};

/// \brief Recursive stratified sampling "RSS" (Algorithm 5; Li et al. [28]).
///
/// Each level selects r edges by BFS from s and partitions the probability
/// space into r+1 strata by the first existing selected edge (Table 1).
/// Stratum i receives a deterministic share K_i = pi_i * K of the budget,
/// the graph is simplified under the stratum's fixed edge states
/// (super-source contraction + pruning), and the method recurses. Variance
/// is provably below MC's (Theorems 4.2/4.3 in [28]); RHH is the special
/// case r = 1.
class RecursiveStratifiedEstimator : public Estimator {
 public:
  RecursiveStratifiedEstimator(const UncertainGraph& graph,
                               const RssOptions& options = {});

  std::string_view name() const override { return "RSS"; }
  const UncertainGraph& graph() const override { return graph_; }

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  /// Recursive body; `g` is the current simplified graph (the original at
  /// depth 0), with s/t already remapped.
  Result<double> Recurse(const UncertainGraph& g, NodeId s, NodeId t, uint32_t k,
                         Rng& rng, MemoryTracker* memory);

  /// Plain MC over `g` (probability-1 edges always exist).
  double PlainMonteCarlo(const UncertainGraph& g, NodeId s, NodeId t, uint32_t k,
                         Rng& rng);

  /// MC over `g` conditioned on `states` (included edges certain, excluded
  /// absent). Used for strata whose budget is already below the threshold:
  /// running the base case on the parent graph is equivalent to building the
  /// simplified child first (Alg. 5 hits line 2 immediately) and skips the
  /// per-stratum graph copy.
  double ConditionedMonteCarlo(const UncertainGraph& g, NodeId s, NodeId t,
                               uint32_t k, const std::vector<EdgeState>& states,
                               Rng& rng);

  /// First `r` tossable (p < 1) edges in BFS order from s (Alg. 5 line 9).
  std::vector<EdgeId> SelectEdgesBfs(const UncertainGraph& g, NodeId s,
                                     uint32_t r) const;

  const UncertainGraph& graph_;
  RssOptions options_;
};

}  // namespace relcomp
