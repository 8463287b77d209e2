#include "reliability/distance_constrained.h"

#include <algorithm>

#include "common/format.h"
#include "common/rng.h"

namespace relcomp {

namespace {

Status ValidateQuery(const UncertainGraph& graph,
                     const DistanceConstrainedQuery& query,
                     uint32_t num_samples) {
  if (!graph.HasNode(query.source) || !graph.HasNode(query.target)) {
    return Status::InvalidArgument("distance-constrained query node out of range");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Monte Carlo
// ---------------------------------------------------------------------------

DistanceConstrainedMonteCarlo::DistanceConstrainedMonteCarlo(
    const UncertainGraph& graph)
    : graph_(graph), sampler_(graph) {}

Result<double> DistanceConstrainedMonteCarlo::Estimate(
    const DistanceConstrainedQuery& query, uint32_t num_samples, uint64_t seed,
    MemoryTracker* memory) {
  RELCOMP_RETURN_NOT_OK(ValidateQuery(graph_, query, num_samples));
  // Online structures: the sampler's reached marks and BFS queue.
  ScopedAllocation working(memory, sampler_.WorkingBytes());
  if (query.source == query.target) return 1.0;
  if (query.max_hops == 0) return 0.0;
  Rng rng(seed);
  const uint32_t hits = sampler_.CountHits(
      {query.source, query.target, query.max_hops}, num_samples, rng);
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

// ---------------------------------------------------------------------------
// Recursive (RHH-style)
// ---------------------------------------------------------------------------

DistanceConstrainedRecursive::DistanceConstrainedRecursive(
    const UncertainGraph& graph, uint32_t threshold)
    : graph_(graph),
      threshold_(threshold),
      visit_epoch_(graph.num_nodes(), 0),
      sampler_(graph) {}

void DistanceConstrainedRecursive::NextEpoch() {
  if (++epoch_ == 0) {
    // Wrapped: unstamped nodes (0) and nodes stamped 2^32 searches ago would
    // read as visited. Start over from 1.
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    epoch_ = 1;
  }
}

template <typename KeepFn>
uint32_t DistanceConstrainedRecursive::BoundedDistance(
    NodeId s, NodeId t, uint32_t max_hops, const std::vector<EdgeState>& states,
    KeepFn keep) {
  if (s == t) return 0;
  NextEpoch();
  queue_.clear();
  depth_.clear();
  queue_.push_back(s);
  depth_.push_back(0);
  visit_epoch_[s] = epoch_;
  for (size_t head = 0; head < queue_.size(); ++head) {
    const NodeId v = queue_[head];
    const uint32_t d = depth_[head];
    if (d >= max_hops) continue;
    for (const AdjEntry& a : graph_.OutEdges(v)) {
      if (!keep(states[a.edge]) || visit_epoch_[a.neighbor] == epoch_) continue;
      if (a.neighbor == t) return d + 1;
      visit_epoch_[a.neighbor] = epoch_;
      queue_.push_back(a.neighbor);
      depth_.push_back(d + 1);
    }
  }
  return static_cast<uint32_t>(-1);
}

EdgeId DistanceConstrainedRecursive::SelectEdge(
    const DistanceConstrainedQuery& query,
    const std::vector<EdgeState>& states) {
  // DFS over included edges, depth-bounded; first undetermined out-edge of a
  // node still within the hop budget wins.
  NextEpoch();
  std::vector<std::pair<NodeId, uint32_t>> stack;
  stack.emplace_back(query.source, 0);
  visit_epoch_[query.source] = epoch_;
  EdgeId selected = kInvalidEdge;
  while (!stack.empty()) {
    const auto [v, d] = stack.back();
    stack.pop_back();
    if (d >= query.max_hops) continue;
    for (const AdjEntry& a : graph_.OutEdges(v)) {
      if (states[a.edge] == EdgeState::kIncluded) {
        if (visit_epoch_[a.neighbor] != epoch_) {
          visit_epoch_[a.neighbor] = epoch_;
          stack.emplace_back(a.neighbor, d + 1);
        }
      } else if (states[a.edge] == EdgeState::kUndetermined &&
                 selected == kInvalidEdge) {
        selected = a.edge;
      }
    }
  }
  return selected;
}

double DistanceConstrainedRecursive::Recurse(const DistanceConstrainedQuery& query,
                                             uint32_t k,
                                             std::vector<EdgeState>& states,
                                             Rng& rng) {
  if (k <= threshold_) return BaseMonteCarlo(query, k, states, rng);

  const auto included = [](EdgeState st) { return st == EdgeState::kIncluded; };
  const auto not_excluded = [](EdgeState st) {
    return st != EdgeState::kExcluded;
  };
  // NOTE: with a hop bound, contracted "certain" prefixes still consume hops,
  // so the path check uses the bounded distance over included edges only.
  if (BoundedDistance(query.source, query.target, query.max_hops, states,
                      included) != static_cast<uint32_t>(-1)) {
    return 1.0;
  }
  if (BoundedDistance(query.source, query.target, query.max_hops, states,
                      not_excluded) == static_cast<uint32_t>(-1)) {
    return 0.0;
  }

  const EdgeId e = SelectEdge(query, states);
  if (e == kInvalidEdge) {
    // All undetermined edges sit beyond the hop budget: outcome is already
    // determined by the cut check above failing to... fall back to sampling.
    return BaseMonteCarlo(query, k, states, rng);
  }
  const double p = graph_.prob(e);
  uint32_t k1 = static_cast<uint32_t>(static_cast<double>(k) * p);
  k1 = std::min(std::max<uint32_t>(k1, 1), k - 1);
  states[e] = EdgeState::kIncluded;
  const double r1 = Recurse(query, k1, states, rng);
  states[e] = EdgeState::kExcluded;
  const double r2 = Recurse(query, k - k1, states, rng);
  states[e] = EdgeState::kUndetermined;
  return p * r1 + (1.0 - p) * r2;
}

double DistanceConstrainedRecursive::BaseMonteCarlo(
    const DistanceConstrainedQuery& query, uint32_t k,
    const std::vector<EdgeState>& states, Rng& rng) {
  if (k == 0) return 0.0;
  const uint32_t hits = sampler_.CountHits(
      {query.source, query.target, query.max_hops, states.data()}, k, rng);
  return static_cast<double>(hits) / static_cast<double>(k);
}

Result<double> DistanceConstrainedRecursive::Estimate(
    const DistanceConstrainedQuery& query, uint32_t num_samples, uint64_t seed,
    MemoryTracker* memory) {
  RELCOMP_RETURN_NOT_OK(ValidateQuery(graph_, query, num_samples));
  // Online structures: the edge-state vector dominates, plus the epoch /
  // queue / depth arrays of the bounded-distance checks and the sampler.
  ScopedAllocation working(
      memory,
      graph_.num_edges() * sizeof(EdgeState) +
          graph_.num_nodes() * (sizeof(uint32_t) * 2 + sizeof(NodeId)) +
          sampler_.WorkingBytes());
  if (query.source == query.target) return 1.0;
  if (query.max_hops == 0) return 0.0;
  Rng rng(seed);
  std::vector<EdgeState> states(graph_.num_edges(), EdgeState::kUndetermined);
  return Recurse(query, num_samples, states, rng);
}

// ---------------------------------------------------------------------------
// Exact oracle
// ---------------------------------------------------------------------------

Result<double> ExactDistanceConstrainedReliability(
    const UncertainGraph& graph, const DistanceConstrainedQuery& query,
    uint32_t max_edges) {
  RELCOMP_RETURN_NOT_OK(ValidateQuery(graph, query, 1));
  const size_t m = graph.num_edges();
  if (m > max_edges) {
    return Status::OutOfRange(
        StrFormat("exact distance-constrained enumeration infeasible: m=%zu", m));
  }
  if (query.source == query.target) return 1.0;
  if (query.max_hops == 0) return 0.0;

  double reliability = 0.0;
  std::vector<uint8_t> mask(m, 0);
  std::vector<uint32_t> dist(graph.num_nodes());
  std::vector<NodeId> queue;
  const uint64_t worlds = 1ULL << m;
  for (uint64_t w = 0; w < worlds; ++w) {
    double pr = 1.0;
    for (size_t e = 0; e < m; ++e) {
      mask[e] = (w >> e) & 1ULL;
      pr *= mask[e] ? graph.prob(static_cast<EdgeId>(e))
                    : 1.0 - graph.prob(static_cast<EdgeId>(e));
    }
    if (pr == 0.0) continue;
    // Depth-bounded BFS in this world.
    std::fill(dist.begin(), dist.end(), static_cast<uint32_t>(-1));
    queue.clear();
    queue.push_back(query.source);
    dist[query.source] = 0;
    bool reached = false;
    for (size_t head = 0; head < queue.size() && !reached; ++head) {
      const NodeId v = queue[head];
      if (dist[v] >= query.max_hops) continue;
      for (const AdjEntry& a : graph.OutEdges(v)) {
        if (!mask[a.edge] || dist[a.neighbor] != static_cast<uint32_t>(-1)) {
          continue;
        }
        if (a.neighbor == query.target) {
          reached = true;
          break;
        }
        dist[a.neighbor] = dist[v] + 1;
        queue.push_back(a.neighbor);
      }
    }
    if (reached) reliability += pr;
  }
  return reliability;
}

}  // namespace relcomp
