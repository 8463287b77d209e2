#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/compact_adjacency.h"
#include "graph/graph_types.h"

namespace relcomp {

/// \brief Physical representation of an UncertainGraph, chosen at
/// GraphBuilder time.
///
/// kRaw is the pointer-chasing-friendly CSR (EdgeRecord + AdjEntry arrays,
/// ~48 bytes/edge); kCompact is the succinct layout of
/// graph/compact_adjacency.h (rank/select offsets + packed columns, typically
/// < 0.6x raw). The two are observationally identical: same iteration order,
/// same edge ids, bitwise-equal probabilities — every estimator runs
/// unmodified and returns bit-identical answers on either.
enum class StorageLayout {
  kRaw,
  kCompact,
};

inline const char* StorageLayoutName(StorageLayout layout) {
  return layout == StorageLayout::kCompact ? "compact" : "raw";
}

/// \brief Summary statistics of the edge-probability distribution, matching
/// the columns of the paper's Table 2.
struct EdgeProbStats {
  double mean = 0.0;
  double stddev = 0.0;
  double q25 = 0.0;
  double q50 = 0.0;
  double q75 = 0.0;
};

/// \brief Immutable directed uncertain graph G = (V, E, P) in CSR form.
///
/// Possible-world semantics: every edge e exists independently with
/// probability P(e) (Section 2.1 of the paper). Build instances with
/// GraphBuilder; the structure is immutable afterwards, so estimators can
/// share one graph across threads/queries.
///
/// OutEdges/InEdges return an AdjacencyRange whose iterator yields AdjEntry
/// values: a thin pointer wrapper in the raw layout, an on-the-fly decode of
/// the packed columns in the compact layout. Range-for loops over
/// `const AdjEntry&` work identically on both.
class UncertainGraph {
 public:
  /// \brief One node's adjacency in either layout. Forward iteration yields
  /// AdjEntry by value; `const AdjEntry&` binds to it for the loop body.
  class AdjacencyRange {
   public:
    class iterator {
     public:
      using value_type = AdjEntry;
      using reference = AdjEntry;
      using pointer = void;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::input_iterator_tag;

      iterator() = default;
      iterator(const AdjacencyRange* range, size_t index)
          : range_(range), index_(index) {}

      AdjEntry operator*() const { return (*range_)[index_]; }
      iterator& operator++() {
        ++index_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++index_;
        return old;
      }
      bool operator==(const iterator& o) const { return index_ == o.index_; }
      bool operator!=(const iterator& o) const { return index_ != o.index_; }

     private:
      const AdjacencyRange* range_ = nullptr;
      size_t index_ = 0;
    };

    AdjacencyRange(const AdjEntry* raw_begin, size_t count)
        : raw_(raw_begin), count_(count) {}
    AdjacencyRange(const CompactAdjacency* compact,
                   const CompactAdjacency::Direction* dir, size_t begin_slot,
                   size_t count)
        : compact_(compact), dir_(dir), begin_slot_(begin_slot),
          count_(count) {}

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    AdjEntry operator[](size_t i) const {
      if (raw_ != nullptr) return raw_[i];
      return compact_->EntryAt(*dir_, begin_slot_ + i);
    }

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, count_); }

   private:
    const AdjEntry* raw_ = nullptr;
    const CompactAdjacency* compact_ = nullptr;
    const CompactAdjacency::Direction* dir_ = nullptr;
    size_t begin_slot_ = 0;
    size_t count_ = 0;
  };

  UncertainGraph() = default;

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }

  /// Physical layout this graph was built with.
  StorageLayout layout() const { return layout_; }

  /// Canonical record for edge id `e` (by value; bitwise identical across
  /// layouts).
  EdgeRecord edge(EdgeId e) const {
    return layout_ == StorageLayout::kRaw ? edges_[e] : compact_.Edge(e);
  }
  /// Existence probability of edge id `e`.
  double prob(EdgeId e) const {
    return layout_ == StorageLayout::kRaw ? edges_[e].prob : compact_.Prob(e);
  }

  /// Outgoing adjacency of `v` (entries sorted by insertion order).
  AdjacencyRange OutEdges(NodeId v) const {
    if (layout_ == StorageLayout::kRaw) {
      return AdjacencyRange(out_adj_.data() + out_offsets_[v],
                            out_offsets_[v + 1] - out_offsets_[v]);
    }
    const size_t begin = compact_.OutOffset(v);
    return AdjacencyRange(&compact_, &compact_.out(), begin,
                          compact_.OutOffset(v + 1) - begin);
  }

  /// \brief Base pointers of the raw layout's outgoing CSR: the out-edges
  /// of v are adj[offsets[v]] up to, not including, adj[offsets[v + 1]].
  struct RawOutCsr {
    const uint32_t* offsets = nullptr;
    const AdjEntry* adj = nullptr;
  };
  /// The raw layout's outgoing CSR, for hot loops that keep its base
  /// pointers in registers rather than calling OutEdges per node. Both
  /// pointers are null in the compact layout.
  RawOutCsr raw_out_csr() const {
    if (layout_ != StorageLayout::kRaw) return {};
    return {out_offsets_.data(), out_adj_.data()};
  }

  /// Incoming adjacency of `v` (AdjEntry::neighbor is the edge tail).
  AdjacencyRange InEdges(NodeId v) const {
    if (layout_ == StorageLayout::kRaw) {
      return AdjacencyRange(in_adj_.data() + in_offsets_[v],
                            in_offsets_[v + 1] - in_offsets_[v]);
    }
    const size_t begin = compact_.InOffset(v);
    return AdjacencyRange(&compact_, &compact_.in(), begin,
                          compact_.InOffset(v + 1) - begin);
  }

  size_t OutDegree(NodeId v) const {
    if (layout_ == StorageLayout::kRaw) {
      return out_offsets_[v + 1] - out_offsets_[v];
    }
    return compact_.OutOffset(v + 1) - compact_.OutOffset(v);
  }
  size_t InDegree(NodeId v) const {
    if (layout_ == StorageLayout::kRaw) {
      return in_offsets_[v + 1] - in_offsets_[v];
    }
    return compact_.InOffset(v + 1) - compact_.InOffset(v);
  }

  /// True iff `v` is a valid node id of this graph.
  bool HasNode(NodeId v) const { return v < num_nodes_; }

  /// Actual resident bytes of the selected layout's structures.
  size_t MemoryBytes() const;

  /// The compact backing (only meaningful when layout() == kCompact).
  const CompactAdjacency& compact() const { return compact_; }

  /// Edge-probability summary (Table 2 columns).
  EdgeProbStats ProbStats() const;

  /// One-line description: "n=..., m=..., mean prob=...".
  std::string Describe() const;

 private:
  friend class GraphBuilder;

  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  StorageLayout layout_ = StorageLayout::kRaw;

  // kRaw backing (empty in kCompact).
  std::vector<EdgeRecord> edges_;
  std::vector<uint32_t> out_offsets_;  // size num_nodes_+1
  std::vector<uint32_t> in_offsets_;   // size num_nodes_+1
  std::vector<AdjEntry> out_adj_;      // size num_edges
  std::vector<AdjEntry> in_adj_;       // size num_edges

  // kCompact backing (empty in kRaw).
  CompactAdjacency compact_;
};

}  // namespace relcomp
