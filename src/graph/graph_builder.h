#pragma once

#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace relcomp {

/// \brief Incremental constructor for UncertainGraph.
///
/// Usage:
/// \code
///   GraphBuilder b(4);
///   RELCOMP_RETURN_NOT_OK(b.AddEdge(0, 1, 0.5));
///   RELCOMP_ASSIGN_OR_RETURN(UncertainGraph g, b.Build());
/// \endcode
///
/// Node ids are auto-grown: AddEdge(7, 9, p) extends the node range to 10.
/// Parallel edges are allowed (callers that need simple graphs can
/// deduplicate with CombineParallelEdges()).
///
/// The physical layout of the built graph is selected with
/// SetStorageLayout() or the Build(layout) overload; kRaw and kCompact
/// graphs are observationally identical (see StorageLayout).
class GraphBuilder {
 public:
  explicit GraphBuilder(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  /// Pre-allocates space for `n` edges.
  void ReserveEdges(size_t n) { edges_.reserve(n); }

  /// Appends an isolated node; returns its id.
  NodeId AddNode() { return static_cast<NodeId>(num_nodes_++); }

  /// Ensures ids [0, n) exist.
  void EnsureNodes(size_t n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  /// Adds a directed probabilistic edge. Fails if p is not in (0, 1] or is
  /// not finite, or if an id equals kInvalidNode.
  Status AddEdge(NodeId tail, NodeId head, double p);

  /// Adds both directions with the same probability.
  Status AddBidirectedEdge(NodeId a, NodeId b, double p);

  /// Replaces groups of parallel edges (same tail and head) by a single edge
  /// with the union probability 1 - prod(1 - p_i). Self-loops are dropped
  /// (they never affect s-t reliability).
  void CombineParallelEdges();

  /// Layout used by Build(); defaults to kRaw.
  void SetStorageLayout(StorageLayout layout) { layout_ = layout; }
  StorageLayout storage_layout() const { return layout_; }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  /// Finalizes the CSR structure in the configured layout. The builder stays
  /// reusable afterwards (Build copies the edge set). InvalidArgument when
  /// num_nodes() exceeds kInvalidNode (ids would not fit a NodeId).
  Result<UncertainGraph> Build() const { return Build(layout_); }

  /// Finalizes with an explicit layout, ignoring SetStorageLayout().
  Result<UncertainGraph> Build(StorageLayout layout) const;

  /// Builder seeded from an existing graph: same node count and the edge set
  /// in canonical edge-id order, so Build() in either layout reproduces the
  /// graph (same edge ids, bitwise-equal probabilities). This is how callers
  /// re-materialize a dataset in the other layout for parity checks.
  static GraphBuilder FromGraph(const UncertainGraph& g);

 private:
  size_t num_nodes_ = 0;
  StorageLayout layout_ = StorageLayout::kRaw;
  std::vector<EdgeRecord> edges_;
};

}  // namespace relcomp
