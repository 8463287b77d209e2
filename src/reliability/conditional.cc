#include "reliability/conditional.h"

#include "common/format.h"
#include "common/rng.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

namespace {

Result<std::vector<EdgeState>> BuildStates(const UncertainGraph& graph,
                                           const ReliabilityCondition& condition) {
  std::vector<EdgeState> states(graph.num_edges(), EdgeState::kUndetermined);
  for (EdgeId e : condition.present) {
    if (e >= graph.num_edges()) {
      return Status::InvalidArgument(StrFormat("edge id %u out of range", e));
    }
    states[e] = EdgeState::kIncluded;
  }
  for (EdgeId e : condition.absent) {
    if (e >= graph.num_edges()) {
      return Status::InvalidArgument(StrFormat("edge id %u out of range", e));
    }
    if (states[e] == EdgeState::kIncluded) {
      return Status::InvalidArgument(
          StrFormat("edge id %u conditioned both present and absent", e));
    }
    states[e] = EdgeState::kExcluded;
  }
  return states;
}

}  // namespace

Result<double> ConditionalReliabilityMonteCarlo(
    const UncertainGraph& graph, NodeId s, NodeId t,
    const ReliabilityCondition& condition, uint32_t num_samples, uint64_t seed) {
  if (!graph.HasNode(s) || !graph.HasNode(t)) {
    return Status::InvalidArgument("conditional reliability: node out of range");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  RELCOMP_ASSIGN_OR_RETURN(const std::vector<EdgeState> states,
                           BuildStates(graph, condition));
  if (s == t) return 1.0;

  Rng rng(seed);
  LazySamplingBfs sampler(graph);
  const uint32_t hits =
      sampler.CountHits({.source = s, .target = t, .states = states.data()},
                        num_samples, rng);
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

Result<double> ExactConditionalReliability(const UncertainGraph& graph, NodeId s,
                                           NodeId t,
                                           const ReliabilityCondition& condition,
                                           uint32_t max_free_edges) {
  if (!graph.HasNode(s) || !graph.HasNode(t)) {
    return Status::InvalidArgument("conditional reliability: node out of range");
  }
  RELCOMP_ASSIGN_OR_RETURN(const std::vector<EdgeState> states,
                           BuildStates(graph, condition));
  if (s == t) return 1.0;

  std::vector<EdgeId> free_edges;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (states[e] == EdgeState::kUndetermined) free_edges.push_back(e);
  }
  if (free_edges.size() > max_free_edges) {
    return Status::OutOfRange(
        StrFormat("exact conditional enumeration infeasible: %zu free edges",
                  free_edges.size()));
  }

  double reliability = 0.0;
  std::vector<uint8_t> mask(graph.num_edges(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    mask[e] = states[e] == EdgeState::kIncluded ? 1 : 0;
  }
  std::vector<uint8_t> visited(graph.num_nodes(), 0);
  std::vector<NodeId> queue;
  const uint64_t worlds = 1ULL << free_edges.size();
  for (uint64_t w = 0; w < worlds; ++w) {
    double pr = 1.0;
    for (size_t j = 0; j < free_edges.size(); ++j) {
      const bool exists = (w >> j) & 1ULL;
      mask[free_edges[j]] = exists ? 1 : 0;
      const double p = graph.prob(free_edges[j]);
      pr *= exists ? p : 1.0 - p;
    }
    if (pr == 0.0) continue;
    std::fill(visited.begin(), visited.end(), 0);
    queue.clear();
    queue.push_back(s);
    visited[s] = 1;
    bool reached = false;
    for (size_t head = 0; head < queue.size() && !reached; ++head) {
      for (const AdjEntry& a : graph.OutEdges(queue[head])) {
        if (!mask[a.edge] || visited[a.neighbor]) continue;
        if (a.neighbor == t) {
          reached = true;
          break;
        }
        visited[a.neighbor] = 1;
        queue.push_back(a.neighbor);
      }
    }
    if (reached) reliability += pr;
  }
  return reliability;
}

}  // namespace relcomp
