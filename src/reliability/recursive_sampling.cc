#include "reliability/recursive_sampling.h"

#include <algorithm>

#include "common/rng.h"

namespace relcomp {

namespace {
/// Logical footprint of one recursion frame: the conditioned edge, the saved
/// state, budgets, and bookkeeping (Section 3.6: RHH/RSS keep the whole
/// recursion stack resident).
constexpr size_t kFrameBytes = 64;
}  // namespace

RecursiveEstimator::RecursiveEstimator(const UncertainGraph& graph,
                                       const RecursiveSamplingOptions& options)
    : graph_(graph),
      options_(options),
      visit_epoch_(graph.num_nodes(), 0),
      sampler_(graph) {
  queue_.reserve(graph.num_nodes());
}

Result<double> RecursiveEstimator::DoEstimate(const ReliabilityQuery& query,
                                              const EstimateOptions& options,
                                              MemoryTracker* memory) {
  if (query.source == query.target) return 1.0;
  Rng rng(options.seed);
  std::vector<EdgeState> states(graph_.num_edges(), EdgeState::kUndetermined);
  ScopedAllocation working(
      memory, states.size() * sizeof(EdgeState) +
                  visit_epoch_.size() * sizeof(uint32_t) +
                  graph_.num_nodes() * sizeof(NodeId) +
                  sampler_.WorkingBytes());
  max_depth_seen_ = 0;
  const double r = Recurse(query.source, query.target, options.num_samples,
                           states, rng, memory, /*depth=*/0);
  return r;
}

void RecursiveEstimator::NextEpoch() {
  if (++epoch_ == 0) {
    // Wrapped: unstamped nodes (0) and nodes stamped 2^32 checks ago would
    // read as visited. Start over from 1.
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    epoch_ = 1;
  }
}

double RecursiveEstimator::Recurse(NodeId s, NodeId t, uint32_t k,
                                   std::vector<EdgeState>& states, Rng& rng,
                                   MemoryTracker* memory, size_t depth) {
  // Account the recursion stack high-water mark.
  if (depth > max_depth_seen_ && memory != nullptr) {
    memory->Add((depth - max_depth_seen_) * kFrameBytes);
    max_depth_seen_ = depth;
  }

  if (k <= options_.threshold) {
    return BaseMonteCarlo(s, t, k, states, rng);
  }

  // Path check: traversal over included edges; cut check: BFS over
  // non-excluded. Both reuse the epoch-marked scratch. Along the way we also
  // pick the next expandable edge (an undetermined out-edge of the
  // certainly-reached component) per the configured strategy — depth-first
  // expansion is [20]'s experimentally best choice and the default.
  NextEpoch();
  queue_.clear();
  queue_.push_back(s);
  visit_epoch_[s] = epoch_;
  EdgeId selected = kInvalidEdge;
  candidates_.clear();
  const EdgeSelectionStrategy strategy = options_.selection;
  size_t head = 0;
  while (head < queue_.size()) {
    NodeId v;
    if (strategy == EdgeSelectionStrategy::kDfs) {
      v = queue_.back();  // LIFO: extend the current partial path
      queue_.pop_back();
    } else {
      v = queue_[head++];  // FIFO: expand level by level
    }
    bool found_path = false;
    for (const AdjEntry& a : graph_.OutEdges(v)) {
      if (states[a.edge] == EdgeState::kIncluded) {
        if (a.neighbor == t) {
          found_path = true;
          break;
        }
        if (visit_epoch_[a.neighbor] != epoch_) {
          visit_epoch_[a.neighbor] = epoch_;
          queue_.push_back(a.neighbor);
        }
      } else if (states[a.edge] == EdgeState::kUndetermined) {
        if (strategy == EdgeSelectionStrategy::kRandom) {
          candidates_.push_back(a.edge);
        } else if (selected == kInvalidEdge) {
          selected = a.edge;
        }
      }
    }
    if (found_path) return 1.0;  // E1 contains an s-t path
  }
  if (strategy == EdgeSelectionStrategy::kRandom && !candidates_.empty()) {
    selected = candidates_[rng.UniformInt(candidates_.size())];
  }

  // Cut check: is t still reachable when only excluded edges are removed?
  NextEpoch();
  queue_.clear();
  queue_.push_back(s);
  visit_epoch_[s] = epoch_;
  bool t_reachable = false;
  for (size_t head = 0; head < queue_.size() && !t_reachable; ++head) {
    const NodeId v = queue_[head];
    for (const AdjEntry& a : graph_.OutEdges(v)) {
      if (states[a.edge] == EdgeState::kExcluded) continue;
      if (a.neighbor == t) {
        t_reachable = true;
        break;
      }
      if (visit_epoch_[a.neighbor] != epoch_) {
        visit_epoch_[a.neighbor] = epoch_;
        queue_.push_back(a.neighbor);
      }
    }
  }
  if (!t_reachable) return 0.0;  // E2 contains an s-t cut

  if (selected == kInvalidEdge) {
    // t is reachable via non-excluded edges, so some residual s-t path exists
    // and its first undetermined edge leaves the certain component — the DFS
    // above must have seen it. Defensive fallback: scan for any undetermined
    // edge out of the certain region.
    return 0.0;
  }

  const double p = graph_.prob(selected);
  // Deterministic proportional allocation (Hansen-Hurwitz). floor() follows
  // Alg. 4; we clamp both branches to >= 1 sample so neither branch's
  // estimate is undefined (the paper inherits the floor from [20]).
  uint32_t k1 = static_cast<uint32_t>(static_cast<double>(k) * p);
  k1 = std::min(std::max<uint32_t>(k1, 1), k - 1);
  const uint32_t k2 = k - k1;

  states[selected] = EdgeState::kIncluded;
  const double r1 = Recurse(s, t, k1, states, rng, memory, depth + 1);
  states[selected] = EdgeState::kExcluded;
  const double r2 = Recurse(s, t, k2, states, rng, memory, depth + 1);
  states[selected] = EdgeState::kUndetermined;

  return p * r1 + (1.0 - p) * r2;
}

double RecursiveEstimator::BaseMonteCarlo(NodeId s, NodeId t, uint32_t k,
                                          const std::vector<EdgeState>& states,
                                          Rng& rng) {
  if (k == 0) return 0.0;
  const uint32_t hits = sampler_.CountHits(
      {.source = s, .target = t, .states = states.data()}, k, rng);
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace relcomp
