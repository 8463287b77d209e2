#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>

#include "common/format.h"

namespace relcomp {

Status GraphBuilder::AddEdge(NodeId tail, NodeId head, double p) {
  if (tail == kInvalidNode || head == kInvalidNode) {
    return Status::InvalidArgument("edge endpoint uses the reserved invalid id");
  }
  if (!std::isfinite(p) || p <= 0.0 || p > 1.0) {
    return Status::InvalidArgument(
        StrFormat("edge probability must be in (0, 1], got %g", p));
  }
  EnsureNodes(static_cast<size_t>(std::max(tail, head)) + 1);
  edges_.push_back(EdgeRecord{tail, head, p});
  return Status::OK();
}

Status GraphBuilder::AddBidirectedEdge(NodeId a, NodeId b, double p) {
  RELCOMP_RETURN_NOT_OK(AddEdge(a, b, p));
  return AddEdge(b, a, p);
}

void GraphBuilder::CombineParallelEdges() {
  std::vector<EdgeRecord> kept;
  kept.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (e.tail != e.head) kept.push_back(e);
  }
  std::sort(kept.begin(), kept.end(), [](const EdgeRecord& a, const EdgeRecord& b) {
    return a.tail != b.tail ? a.tail < b.tail : a.head < b.head;
  });
  std::vector<EdgeRecord> combined;
  combined.reserve(kept.size());
  for (const auto& e : kept) {
    if (!combined.empty() && combined.back().tail == e.tail &&
        combined.back().head == e.head) {
      // Union of independent parallel edges.
      combined.back().prob = 1.0 - (1.0 - combined.back().prob) * (1.0 - e.prob);
    } else {
      combined.push_back(e);
    }
  }
  edges_ = std::move(combined);
}

Result<UncertainGraph> GraphBuilder::Build(StorageLayout layout) const {
  if (num_nodes_ > kInvalidNode) {
    return Status::InvalidArgument(
        StrFormat("%zu nodes exceed the 32-bit node id space", num_nodes_));
  }
  UncertainGraph g;
  g.num_nodes_ = num_nodes_;
  g.num_edges_ = edges_.size();
  g.edges_ = edges_;
  const size_t n = num_nodes_;
  const size_t m = edges_.size();

  g.out_offsets_.assign(n + 1, 0);
  g.in_offsets_.assign(n + 1, 0);
  for (const auto& e : g.edges_) {
    ++g.out_offsets_[e.tail + 1];
    ++g.in_offsets_[e.head + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  g.out_adj_.resize(m);
  g.in_adj_.resize(m);
  std::vector<uint32_t> out_cursor(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
  std::vector<uint32_t> in_cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (EdgeId id = 0; id < m; ++id) {
    const EdgeRecord& e = g.edges_[id];
    g.out_adj_[out_cursor[e.tail]++] = AdjEntry{e.head, id, e.prob};
    g.in_adj_[in_cursor[e.head]++] = AdjEntry{e.tail, id, e.prob};
  }

  if (layout == StorageLayout::kCompact) {
    // The compact columns are derived from the raw CSR arrays just built, so
    // slot order and edge ids match the raw layout exactly; the raw arrays
    // are then released.
    g.layout_ = StorageLayout::kCompact;
    g.compact_ = CompactAdjacency::Build(n, g.edges_, g.out_offsets_,
                                         g.in_offsets_, g.out_adj_, g.in_adj_);
    g.edges_ = {};
    g.out_offsets_ = {};
    g.in_offsets_ = {};
    g.out_adj_ = {};
    g.in_adj_ = {};
  }
  return g;
}

GraphBuilder GraphBuilder::FromGraph(const UncertainGraph& g) {
  GraphBuilder b(g.num_nodes());
  b.ReserveEdges(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    b.edges_.push_back(g.edge(e));
  }
  return b;
}

}  // namespace relcomp
