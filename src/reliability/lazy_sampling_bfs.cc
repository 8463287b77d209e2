#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

namespace {

/// How many samples run between cooperative-cancellation polls. Results are
/// identical for any cadence: a cancelled call abandons everything.
constexpr uint32_t kCancelPollStride = 64;

/// Raw layout: the adjacency is one contiguous AdjEntry array per node.
struct RawArcs {
  template <typename Visit>
  static bool ForEach(const UncertainGraph& graph, NodeId v, Visit& visit) {
    const UncertainGraph::AdjacencyRange range = graph.OutEdges(v);
    for (const AdjEntry *a = range.data(), *end = a + range.size(); a != end;
         ++a) {
      if (visit(*a)) return true;
    }
    return false;
  }
};

/// Compact layout: entries are decoded one at a time.
struct DecodedArcs {
  template <typename Visit>
  static bool ForEach(const UncertainGraph& graph, NodeId v, Visit& visit) {
    for (const AdjEntry& a : graph.OutEdges(v)) {
      if (visit(a)) return true;
    }
    return false;
  }
};

/// Plain sampling: Rng::Bernoulli, which draws only for 0 < P(e) < 1.
struct EdgeCoin {
  bool Toss(Rng& rng, const AdjEntry& a) const { return rng.Bernoulli(a.prob); }
};

/// Conditioned sampling: kIncluded / kExcluded edges decide without a draw.
struct ConditionedCoin {
  const EdgeState* states;
  bool Toss(Rng& rng, const AdjEntry& a) const {
    switch (states[a.edge]) {
      case EdgeState::kIncluded:
        return true;
      case EdgeState::kExcluded:
        return false;
      case EdgeState::kUndetermined:
        break;
    }
    return rng.Bernoulli(a.prob);
  }
};

}  // namespace

LazySamplingBfs::LazySamplingBfs(const UncertainGraph& graph)
    : graph_(graph),
      reached_(graph.num_nodes(), 0),
      queue_(graph.num_nodes()) {}

size_t LazySamplingBfs::WorkingBytes() const {
  return reached_.size() * sizeof(uint8_t) + queue_.size() * sizeof(NodeId);
}

template <typename Arcs, typename Coin, typename Sink>
bool LazySamplingBfs::Run(const Walk& walk, uint32_t num_samples, Rng& rng,
                          const Coin& coin, const CancelToken* cancel,
                          Sink& sink) {
  uint8_t* const reached = reached_.data();
  NodeId* const queue = queue_.data();
  size_t tail = 0;
  // One arc of the BFS frontier; returns true iff the toss reached the
  // target (the sample ends there, its draws consumed up to this one).
  auto visit = [&](const AdjEntry& a) {
    const NodeId w = a.neighbor;
    if (reached[w]) return false;
    const bool take = coin.Toss(rng, a);
    if (take & (w == walk.target)) return true;
    reached[w] = take;
    queue[tail] = w;
    tail += take;
    return false;
  };
  for (uint32_t i = 0; i < num_samples; ++i) {
    if (cancel != nullptr && i % kCancelPollStride == 0 &&
        cancel->Cancelled()) {
      return false;
    }
    queue[0] = walk.source;
    reached[walk.source] = 1;
    tail = 1;
    bool hit = false;
    uint32_t depth = 0;
    size_t level_end = 1;
    for (size_t head = 0; head < tail && !hit; ++head) {
      if (head == level_end) {
        ++depth;
        level_end = tail;
      }
      if (depth >= walk.max_hops) break;
      hit = Arcs::ForEach(graph_, queue[head], visit);
    }
    for (size_t j = 0; j < tail; ++j) reached[queue[j]] = 0;
    sink(hit, queue, tail);
  }
  return true;
}

template <typename Sink>
bool LazySamplingBfs::Dispatch(const Walk& walk, uint32_t num_samples,
                               Rng& rng, const CancelToken* cancel,
                               Sink& sink) {
  const bool raw = graph_.layout() == StorageLayout::kRaw;
  if (walk.states != nullptr) {
    const ConditionedCoin coin{walk.states};
    return raw ? Run<RawArcs>(walk, num_samples, rng, coin, cancel, sink)
               : Run<DecodedArcs>(walk, num_samples, rng, coin, cancel, sink);
  }
  const EdgeCoin coin;
  return raw ? Run<RawArcs>(walk, num_samples, rng, coin, cancel, sink)
             : Run<DecodedArcs>(walk, num_samples, rng, coin, cancel, sink);
}

uint32_t LazySamplingBfs::CountHits(const Walk& walk, uint32_t num_samples,
                                    Rng& rng) {
  // Without a token the call cannot fail.
  return *CountHits(walk, num_samples, rng, /*cancel=*/nullptr);
}

Result<uint32_t> LazySamplingBfs::CountHits(const Walk& walk,
                                            uint32_t num_samples, Rng& rng,
                                            const CancelToken* cancel) {
  uint32_t hits = 0;
  auto count = [&](bool hit, const NodeId*, size_t) { hits += hit; };
  if (!Dispatch(walk, num_samples, rng, cancel, count)) {
    return cancel->ToStatus();
  }
  return hits;
}

Status LazySamplingBfs::AccumulateReached(const Walk& walk,
                                          uint32_t num_samples, Rng& rng,
                                          std::vector<uint32_t>& hits,
                                          const CancelToken* cancel) {
  auto accumulate = [&](bool, const NodeId* queue, size_t tail) {
    for (size_t j = 1; j < tail; ++j) ++hits[queue[j]];
  };
  if (!Dispatch(walk, num_samples, rng, cancel, accumulate)) {
    return cancel->ToStatus();
  }
  return Status::OK();
}

}  // namespace relcomp
