#pragma once

#include <cstdint>
#include <vector>

#include "reliability/estimator.h"

namespace relcomp {

/// \brief Options for Lazy Propagation sampling.
struct LazyPropagationOptions {
  /// true  => LP+ : the paper's corrected re-arm `X' + c_v + 1`
  ///                (Section 2.6, "Our correction in the algorithm").
  /// false => LP  : the original (buggy) re-arm `X' + c_v` from [30], kept
  ///                to reproduce the over-estimation shown in Figure 5.
  bool corrected = true;
};

/// \brief Lazy Propagation sampling (Algorithm 6; Li et al. [30], adapted to
/// s-t reliability).
///
/// Instead of tossing every probed edge per sample, each edge draws a
/// geometric variate that says after how many expansions of its tail it will
/// exist next; a per-node min-heap fires edges whose round matches the tail's
/// expansion counter c_v. Expected probing cost drops by a factor 1/P(e).
/// Statistically equivalent to MC (same variance).
class LazyPropagationEstimator : public Estimator {
 public:
  LazyPropagationEstimator(const UncertainGraph& graph,
                           const LazyPropagationOptions& options = {});

  std::string_view name() const override { return options_.corrected ? "LP+" : "LP"; }
  const UncertainGraph& graph() const override { return graph_; }

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  /// One lazily-armed edge: fires when its tail's counter reaches `round`.
  struct Armed {
    uint64_t round = 0;
    EdgeId edge = kInvalidEdge;
    bool operator>(const Armed& other) const { return round > other.round; }
  };
  /// Binary min-heap on Armed::round (std::priority_queue on a flat vector).
  struct NodeHeap {
    std::vector<Armed> entries;  // heapified, std::greater ordering
    void Push(Armed a);
    const Armed& Top() const { return entries.front(); }
    Armed Pop();
    bool Empty() const { return entries.empty(); }
  };

  const UncertainGraph& graph_;
  LazyPropagationOptions options_;
  /// Re-armed entries deferred past the current drain (LP variant only).
  std::vector<Armed> pending_;
};

}  // namespace relcomp
