#include "reliability/lazy_sampling_bfs.h"

#include <span>

namespace relcomp {

namespace {

/// How many samples run between cooperative-cancellation polls. Results are
/// identical for any cadence: a cancelled call abandons everything.
constexpr uint32_t kCancelPollStride = 64;

/// Raw layout: each node's arcs are a pointer range into one AdjEntry
/// array, found from the CSR base pointers the kernel holds in registers.
class RawArcs {
 public:
  explicit RawArcs(const UncertainGraph& graph) : csr_(graph.raw_out_csr()) {}

  std::span<const AdjEntry> Of(NodeId v) const {
    return {csr_.adj + csr_.offsets[v], csr_.adj + csr_.offsets[v + 1]};
  }

  /// Starts loading the first line of v's arcs, so a node expanded next is
  /// not a cache miss.
  void Prefetch(NodeId v) const {
    __builtin_prefetch(csr_.adj + csr_.offsets[v]);
  }

 private:
  const UncertainGraph::RawOutCsr csr_;
};

/// Compact layout: entries are decoded one at a time.
class DecodedArcs {
 public:
  explicit DecodedArcs(const UncertainGraph& graph) : graph_(graph) {}

  UncertainGraph::AdjacencyRange Of(NodeId v) const {
    return graph_.OutEdges(v);
  }

  /// Nothing to warm: a decode reads several packed columns.
  void Prefetch(NodeId) const {}

 private:
  const UncertainGraph& graph_;
};

/// Plain sampling: Bernoulli(P(e)), which draws only for 0 < P(e) < 1.
struct EdgeCoin {
  bool Toss(RngState& rng, const AdjEntry& a) const {
    return rng.Bernoulli(a.prob);
  }
};

/// Conditioned sampling: kIncluded / kExcluded edges decide without a draw.
struct ConditionedCoin {
  const EdgeState* states;
  bool Toss(RngState& rng, const AdjEntry& a) const {
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
  // Everything the loop reads per arc or per node lives in locals, the RNG
  // state included: a byte store to `reached` may alias any object, so
  // fields read through `this`, `walk` or `rng` would be reloaded around it.
  uint8_t* const reached = reached_.data();
  NodeId* const queue = queue_.data();
  const NodeId source = walk.source;
  const NodeId target = walk.target;
  const uint32_t max_hops = walk.max_hops;
  const Arcs arcs(graph_);
  ScopedRngState local(rng);
  RngState& state = local.state();
  for (uint32_t i = 0; i < num_samples; ++i) {
    if (cancel != nullptr && i % kCancelPollStride == 0 &&
        cancel->Cancelled()) {
      return false;
    }
    queue[0] = source;
    reached[source] = 1;
    size_t tail = 1;
    bool hit = false;
    uint32_t depth = 0;
    size_t level_end = 1;
    for (size_t head = 0; head < tail; ++head) {
      if (head == level_end) {
        ++depth;
        level_end = tail;
      }
      if (depth >= max_hops) break;
      if (head + 1 < tail) arcs.Prefetch(queue[head + 1]);
      for (const AdjEntry& a : arcs.Of(queue[head])) {
        const NodeId w = a.neighbor;
        if (reached[w]) continue;
        const bool take = coin.Toss(state, a);
        // The toss that reaches the target ends the sample: the next one
        // continues the stream from the draw after it.
        if (take & (w == target)) {
          hit = true;
          break;
        }
        reached[w] = take;
        queue[tail] = w;
        tail += take;
      }
      if (hit) break;
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

// These two functions hold every instantiation of Run, inlined. Their
// start is pinned to a 64-byte boundary so that the kernel's loops keep
// their cache-line placement whatever code the linker puts before them: at
// the default 16-byte alignment an edit to an unrelated file could move
// them, and MC s-t throughput with them, by about 3 %.
__attribute__((aligned(64))) Result<uint32_t> LazySamplingBfs::CountHits(
    const Walk& walk, uint32_t num_samples, Rng& rng,
    const CancelToken* cancel) {
  uint32_t hits = 0;
  auto count = [&](bool hit, const NodeId*, size_t) { hits += hit; };
  if (!Dispatch(walk, num_samples, rng, cancel, count)) {
    return cancel->ToStatus();
  }
  return hits;
}

__attribute__((aligned(64))) Status LazySamplingBfs::AccumulateReached(
    const Walk& walk, uint32_t num_samples, Rng& rng,
    std::vector<uint32_t>& hits, const CancelToken* cancel) {
  auto accumulate = [&](bool, const NodeId* queue, size_t tail) {
    for (size_t j = 1; j < tail; ++j) ++hits[queue[j]];
  };
  if (!Dispatch(walk, num_samples, rng, cancel, accumulate)) {
    return cancel->ToStatus();
  }
  return Status::OK();
}

}  // namespace relcomp
