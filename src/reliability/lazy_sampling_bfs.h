#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/subgraph.h"
#include "graph/uncertain_graph.h"

namespace relcomp {

/// \brief The lazy-sampling BFS behind every Monte Carlo sampler (the inner
/// loop of Algorithm 1): per sample, a BFS from the source that tosses each
/// edge the first time the search reaches its tail, so only the explored
/// part of a possible world is ever drawn.
///
/// MC s-t and its source sweeps, distance-constrained MC, conditional MC and
/// the base cases of RHH, RSS and distance-constrained RHH all sample
/// through this one class. Its results are a fixed function of (graph,
/// walk, sample count, RNG state), identical in both storage layouts and to
/// the per-estimator loops it replaced:
///
///  - arcs are visited in adjacency order, level by level;
///  - an arc to an already-reached node draws nothing;
///  - otherwise the arc is tossed exactly like Rng::Bernoulli(P(e)): one
///    draw iff 0 < P(e) < 1, while certain edges (P(e) = 1, conditioned
///    kIncluded) are taken and impossible ones (conditioned kExcluded) are
///    skipped without drawing;
///  - a sample stops at the toss that reaches the target, so the next
///    sample continues the RNG stream from exactly that draw.
///
/// Hot-loop shape: the coin outcome never steers a branch. A tossed arc is
/// appended to the BFS queue unconditionally and the queue tail advances by
/// the 0/1 outcome, and the reached mark is stored the same way, so a coin
/// near 50/50 never mispredicts. The RNG state, the walk and the raw CSR
/// base pointers are copied into locals, so they stay in registers across
/// the byte stores (a ScopedRngState writes the state back on every exit);
/// in the raw layout the next queued node's arcs are prefetched. Reached
/// marks are one byte per node, reset after each sample through the queue
/// that recorded them, so they need no epoch counter (nor a wrap-around
/// clear). See src/reliability/README.md, "Hot-loop shape".
///
/// Not thread-safe: one instance per thread (estimators own one each).
class LazySamplingBfs {
 public:
  /// `Walk::max_hops` value meaning no hop bound.
  static constexpr uint32_t kUnbounded = std::numeric_limits<uint32_t>::max();

  /// What each sample explores.
  struct Walk {
    NodeId source = kInvalidNode;
    /// A sample stops as soon as a toss reaches this node; kInvalidNode (the
    /// default) explores the whole sampled reachable set.
    NodeId target = kInvalidNode;
    /// Nodes farther than this many hops from `source` are never reached.
    uint32_t max_hops = kUnbounded;
    /// Optional per-edge conditioning, indexed by EdgeId: kIncluded edges
    /// always exist and kExcluded edges never do (neither draws).
    const EdgeState* states = nullptr;
  };

  explicit LazySamplingBfs(const UncertainGraph& graph);

  /// Samples `num_samples` worlds from `rng`; returns in how many of them
  /// `walk.source` reached `walk.target`. Precondition: source != target,
  /// both valid nodes (callers answer s = t themselves).
  uint32_t CountHits(const Walk& walk, uint32_t num_samples, Rng& rng);

  /// CountHits polling `cancel` (may be null) before every 64th sample. A
  /// cancelled call returns the token's status and no count.
  Result<uint32_t> CountHits(const Walk& walk, uint32_t num_samples, Rng& rng,
                             const CancelToken* cancel);

  /// Samples `num_samples` worlds from `rng` and adds, for every sample, 1 to
  /// `hits[v]` of each node v != walk.source it reached (`hits` has one
  /// entry per node). Polls `cancel` like CountHits; a cancelled call leaves
  /// `hits` partially accumulated, so the caller must discard it.
  Status AccumulateReached(const Walk& walk, uint32_t num_samples, Rng& rng,
                           std::vector<uint32_t>& hits,
                           const CancelToken* cancel = nullptr);

  /// Bytes of the sampler's scratch (reached marks plus the BFS queue): the
  /// online working set the estimators report.
  size_t WorkingBytes() const;

 private:
  template <typename Sink>
  bool Dispatch(const Walk& walk, uint32_t num_samples, Rng& rng,
                const CancelToken* cancel, Sink& sink);
  template <typename Arcs, typename Coin, typename Sink>
  bool Run(const Walk& walk, uint32_t num_samples, Rng& rng, const Coin& coin,
           const CancelToken* cancel, Sink& sink);

  const UncertainGraph& graph_;
  /// 1 for nodes reached by the sample in progress; all 0 between samples.
  std::vector<uint8_t> reached_;
  /// BFS queue, sized to the node count (the unconditional append writes at
  /// the tail only while some node is still unreached).
  std::vector<NodeId> queue_;
};

}  // namespace relcomp
