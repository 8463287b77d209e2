#include "reliability/recursive_stratified.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {

RecursiveStratifiedEstimator::RecursiveStratifiedEstimator(
    const UncertainGraph& graph, const RssOptions& options)
    : graph_(graph), options_(options) {}

Result<double> RecursiveStratifiedEstimator::DoEstimate(
    const ReliabilityQuery& query, const EstimateOptions& options,
    MemoryTracker* memory) {
  if (query.source == query.target) return 1.0;
  Rng rng(options.seed);
  return Recurse(graph_, query.source, query.target, options.num_samples, rng,
                 memory);
}

std::vector<EdgeId> RecursiveStratifiedEstimator::SelectEdgesBfs(
    const UncertainGraph& g, NodeId s, uint32_t r) const {
  std::vector<EdgeId> selected;
  selected.reserve(r);
  std::vector<uint8_t> visited(g.num_nodes(), 0);
  std::vector<uint8_t> edge_taken(g.num_edges(), 0);
  std::vector<NodeId> queue;
  queue.push_back(s);
  visited[s] = 1;
  for (size_t head = 0; head < queue.size() && selected.size() < r; ++head) {
    const NodeId v = queue[head];
    for (const AdjEntry& a : g.OutEdges(v)) {
      if (a.prob < 1.0 && !edge_taken[a.edge]) {
        edge_taken[a.edge] = 1;
        selected.push_back(a.edge);
        if (selected.size() >= r) break;
      }
      if (!visited[a.neighbor]) {
        visited[a.neighbor] = 1;
        queue.push_back(a.neighbor);
      }
    }
  }
  return selected;
}

Result<double> RecursiveStratifiedEstimator::Recurse(const UncertainGraph& g,
                                                     NodeId s, NodeId t,
                                                     uint32_t k, Rng& rng,
                                                     MemoryTracker* memory) {
  if (k < options_.threshold || g.num_edges() < options_.num_strata) {
    return PlainMonteCarlo(g, s, t, k, rng);
  }

  const std::vector<EdgeId> selected =
      SelectEdgesBfs(g, s, options_.num_strata);
  if (selected.empty()) {
    // No tossable edge is reachable from s: reachability is deterministic.
    return PlainMonteCarlo(g, s, t, std::max<uint32_t>(k, 1), rng);
  }
  const uint32_t r = static_cast<uint32_t>(selected.size());

  // Stratum probabilities pi_i (Eq. 10): stratum 0 excludes every selected
  // edge; stratum i >= 1 includes edge i and excludes all earlier ones.
  std::vector<double> pi(r + 1, 0.0);
  {
    double prefix_absent = 1.0;  // prod_{j < i} (1 - p_j)
    for (uint32_t i = 1; i <= r; ++i) {
      const double p = g.prob(selected[i - 1]);
      pi[i] = prefix_absent * p;
      prefix_absent *= (1.0 - p);
    }
    pi[0] = prefix_absent;
  }

  std::vector<EdgeState> states(g.num_edges(), EdgeState::kUndetermined);
  ScopedAllocation level_mem(memory, states.size() * sizeof(EdgeState) +
                                         (r + 1) * sizeof(double));

  double estimate = 0.0;
  for (uint32_t i = 0; i <= r; ++i) {
    if (pi[i] <= 0.0) continue;
    // Proportional allocation K_i = pi_i * K (Alg. 5 line 13), clamped to at
    // least one sample: skipping low-mass strata entirely would bias the
    // estimate low by the skipped mass (tail strata are finished by a single
    // conditioned-MC sample below, so the clamp costs almost nothing).
    const uint32_t ki = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(pi[i] * static_cast<double>(k))));

    // Stratum status vector (Table 1): edges before i absent, edge i (if any)
    // present, the rest undetermined.
    const uint32_t fixed = i == 0 ? r : i;
    for (uint32_t j = 0; j < fixed; ++j) {
      states[selected[j]] = EdgeState::kExcluded;
    }
    if (i >= 1) states[selected[i - 1]] = EdgeState::kIncluded;

    double mu = 0.0;
    if (ki < options_.threshold) {
      // The recursive call would hit its base case immediately; conditioned
      // MC on the parent graph is equivalent and skips the graph copy.
      mu = ConditionedMonteCarlo(g, s, t, ki, states, rng);
    } else {
      RELCOMP_ASSIGN_OR_RETURN(SimplifyResult simplified,
                               SimplifyGraph(g, s, t, states));
      switch (simplified.outcome) {
        case SimplifyOutcome::kCertainOne:
          mu = 1.0;
          break;
        case SimplifyOutcome::kCertainZero:
          mu = 0.0;
          break;
        case SimplifyOutcome::kReduced: {
          const UncertainGraph& child = simplified.rooted.graph;
          ScopedAllocation child_mem(memory, child.MemoryBytes());
          RELCOMP_ASSIGN_OR_RETURN(
              mu, Recurse(child, simplified.rooted.source,
                          simplified.rooted.target, ki, rng, memory));
          break;
        }
      }
    }
    estimate += pi[i] * mu;

    // Reset the stratum's states for the next iteration.
    for (uint32_t j = 0; j < fixed; ++j) {
      states[selected[j]] = EdgeState::kUndetermined;
    }
    if (i >= 1) states[selected[i - 1]] = EdgeState::kUndetermined;
  }
  return estimate;
}

double RecursiveStratifiedEstimator::ConditionedMonteCarlo(
    const UncertainGraph& g, NodeId s, NodeId t, uint32_t k,
    const std::vector<EdgeState>& states, Rng& rng) {
  if (k == 0) return 0.0;
  if (s == t) return 1.0;
  LazySamplingBfs sampler(g);
  const uint32_t hits = sampler.CountHits(
      {.source = s, .target = t, .states = states.data()}, k, rng);
  return static_cast<double>(hits) / static_cast<double>(k);
}

double RecursiveStratifiedEstimator::PlainMonteCarlo(const UncertainGraph& g,
                                                     NodeId s, NodeId t,
                                                     uint32_t k, Rng& rng) {
  if (k == 0 || s == t) return s == t ? 1.0 : 0.0;
  LazySamplingBfs sampler(g);
  const uint32_t hits = sampler.CountHits({.source = s, .target = t}, k, rng);
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace relcomp
