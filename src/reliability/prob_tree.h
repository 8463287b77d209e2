#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/subgraph.h"
#include "reliability/estimator.h"

namespace relcomp {

/// \brief Options for the FWD (fixed-width) ProbTree index.
struct ProbTreeOptions {
  /// Tree-decomposition width w. The index is (near-)lossless for w <= 2:
  /// between any boundary pair of a bag there are at most two paths, whose
  /// union probability 1-(1-p1)(1-p2) is precomputed (the paper's O(w^2)
  /// adaptation of [32]). Larger widths trade accuracy for more reduction.
  uint32_t width = 2;

  /// Reproduces the *original* ProbTree of [32], which precomputes the full
  /// distance probability distribution for every boundary pair (needed for
  /// shortest-path queries) at O(w^2 d) per bag instead of the paper's
  /// reliability-only O(w^2). Pure build-time/size ablation: s-t reliability
  /// answers are identical either way (Section 2.7, "Our adaptation in
  /// complexity": 4062 s -> 2482 s on BioMine).
  bool precompute_distance_distributions = false;
  /// Length cap d for the distributions (the graph-diameter bound of [32]).
  uint32_t max_distance = 16;
};

/// \brief Build-time statistics for Figure 13 style reporting.
struct ProbTreeBuildStats {
  double build_seconds = 0.0;
  size_t num_bags = 0;
  size_t root_nodes = 0;
  size_t root_edges = 0;
};

/// \brief One directed probabilistic edge held by a bag or by the root.
struct ProbTreeEdge {
  NodeId tail = kInvalidNode;
  NodeId head = kInvalidNode;
  double prob = 0.0;
  /// -1 for an original graph edge; otherwise the id of the child bag whose
  /// aggregation produced this virtual edge.
  int32_t origin = -1;
  /// Survival function of the tail->head distance: survival[l] = P(no path
  /// of length <= l+1 exists). Only populated when
  /// ProbTreeOptions::precompute_distance_distributions is set (the [32]
  /// original); empty in the paper's reliability-only mode.
  std::vector<double> survival;

  /// P(shortest tail->head distance == length), from the survival function.
  /// Returns 0 when distributions were not built or length is out of range.
  double DistanceProbability(uint32_t length) const;
};

/// \brief FWD ProbTree index (Algorithm 7; Maniu et al. [32]).
///
/// A relaxed tree decomposition: nodes of (current) degree <= w are
/// repeatedly absorbed into bags; removing a node adds a clique of virtual
/// edges between its neighbors whose probabilities aggregate the direct
/// edges and the two-hop paths through the removed node. What remains is the
/// root graph. A query (s, t) merges the bags on the root-paths of s and t
/// back in (dropping the virtual edges they contributed) and runs any
/// estimator on the much smaller extracted graph (Algorithm 8).
class ProbTreeIndex {
 public:
  /// Builds the index. O(n + m) decomposition, O(w^2) aggregation per bag.
  static Result<ProbTreeIndex> Build(const UncertainGraph& graph,
                                     const ProbTreeOptions& options);

  /// Builds the index into a shareable immutable handle. The decomposition is
  /// seed-free and ExtractQueryGraph is const, so one index serves any number
  /// of estimator replicas concurrently (the engine's replica path builds it
  /// once instead of once per worker).
  static Result<std::shared_ptr<const ProbTreeIndex>> BuildShared(
      const UncertainGraph& graph, const ProbTreeOptions& options);

  /// Persists / restores the index (Figure 13c measures loading time). The
  /// file is a magic followed by the AppendBlock payload; LoadFromFile
  /// parses it with FromBlock's bounds checks.
  Status SaveToFile(const std::string& path) const;
  static Result<ProbTreeIndex> LoadFromFile(const std::string& path);

  /// Serializes the index as a snapshot-section payload — the SaveToFile
  /// byte stream without the file magic (the snapshot container supplies
  /// identity and checksums). Distance distributions (survival vectors) are
  /// not persisted, matching SaveToFile.
  void AppendBlock(std::string* out) const;

  /// Reconstructs an index from an AppendBlock payload. Bounds-checked;
  /// a truncated or malformed payload returns kIOError.
  static Result<ProbTreeIndex> FromBlock(const void* data, size_t size);

  /// Builds the equivalent query graph for (s, t) with remapped endpoints.
  Result<RootedGraph> ExtractQueryGraph(NodeId s, NodeId t) const;

  /// Logical bytes of the resident index.
  size_t MemoryBytes() const;

  const ProbTreeBuildStats& stats() const { return stats_; }

  /// \name Introspection (tests / examples)
  /// @{
  struct Bag {
    NodeId covered = kInvalidNode;        ///< the node this bag removed
    std::vector<NodeId> nodes;            ///< covered + boundary
    std::vector<NodeId> boundary;         ///< nodes \ {covered}, size <= w
    std::vector<ProbTreeEdge> edges;      ///< absorbed + child-virtual edges
    int32_t parent = -1;                  ///< bag id, or -1 for the root
  };
  size_t num_bags() const { return bags_.size(); }
  const Bag& bag(size_t i) const { return bags_[i]; }
  /// Bag that covers `v`, or -1 if `v` lives in the root.
  int32_t CoveredIn(NodeId v) const { return covered_in_[v]; }
  const std::vector<ProbTreeEdge>& root_edges() const { return root_edges_; }
  /// @}

 private:
  ProbTreeIndex() = default;

  size_t num_nodes_ = 0;
  std::vector<Bag> bags_;
  std::vector<ProbTreeEdge> root_edges_;
  std::vector<int32_t> covered_in_;  // per node: bag id or -1
  ProbTreeBuildStats stats_;
};

/// Which estimator runs on the extracted query graph (Section 3.8 couples
/// ProbTree with the faster estimators; Table 16).
enum class ProbTreeInner {
  kMonteCarlo = 0,  ///< the paper's default (as in [32])
  kLazyPropagationPlus,
  kRecursive,            ///< RHH
  kRecursiveStratified,  ///< RSS
};

/// \brief ProbTree-backed s-t reliability estimator (Algorithm 8).
///
/// Holds its index through a `shared_ptr<const>`: replicas created over the
/// same index (CreateWithIndex) share one copy and only pay for private
/// per-query state.
class ProbTreeEstimator : public Estimator {
 public:
  static Result<std::unique_ptr<ProbTreeEstimator>> Create(
      const UncertainGraph& graph, const ProbTreeOptions& options,
      ProbTreeInner inner = ProbTreeInner::kMonteCarlo);

  /// Replica path: wraps an existing shared index instead of building one.
  static Result<std::unique_ptr<ProbTreeEstimator>> CreateWithIndex(
      const UncertainGraph& graph, std::shared_ptr<const ProbTreeIndex> index,
      ProbTreeInner inner = ProbTreeInner::kMonteCarlo);

  std::string_view name() const override { return name_; }
  const UncertainGraph& graph() const override { return graph_; }

  size_t IndexMemoryBytes() const override { return index_->MemoryBytes(); }
  /// The whole ProbTree index is held via a shareable immutable handle.
  size_t SharedIndexBytes() const override { return index_->MemoryBytes(); }
  const void* SharedIndexIdentity() const override { return index_.get(); }

  const ProbTreeIndex& index() const { return *index_; }
  std::shared_ptr<const ProbTreeIndex> shared_index() const { return index_; }

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  ProbTreeEstimator(const UncertainGraph& graph,
                    std::shared_ptr<const ProbTreeIndex> index,
                    ProbTreeInner inner);

  const UncertainGraph& graph_;
  std::shared_ptr<const ProbTreeIndex> index_;
  ProbTreeInner inner_;
  std::string name_;
};

}  // namespace relcomp
