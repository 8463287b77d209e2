#include "reliability/exact.h"

#include <algorithm>
#include <vector>

#include "common/format.h"
#include "graph/subgraph.h"

namespace relcomp {

namespace {

struct FactoringContext {
  const UncertainGraph& graph;
  NodeId s;
  NodeId t;
  std::vector<EdgeState> states;
  uint64_t steps = 0;
  uint64_t max_steps = 0;
  bool exhausted = false;
  /// Traversal scratch every step reuses: visited marks, and the BFS queue
  /// or DFS stack.
  std::vector<uint8_t> visited;
  std::vector<NodeId> frontier;
};

/// Resets the traversal scratch to "only s visited, s pending".
void StartTraversal(FactoringContext& ctx) {
  std::fill(ctx.visited.begin(), ctx.visited.end(), 0);
  ctx.frontier.clear();
  ctx.frontier.push_back(ctx.s);
  ctx.visited[ctx.s] = 1;
}

/// BFS over edges whose state satisfies `keep`; returns whether t is reached.
template <typename KeepFn>
bool StateReachable(FactoringContext& ctx, KeepFn keep) {
  StartTraversal(ctx);
  for (size_t head = 0; head < ctx.frontier.size(); ++head) {
    const NodeId v = ctx.frontier[head];
    for (const AdjEntry& a : ctx.graph.OutEdges(v)) {
      if (!keep(ctx.states[a.edge]) || ctx.visited[a.neighbor]) continue;
      if (a.neighbor == ctx.t) return true;
      ctx.visited[a.neighbor] = 1;
      ctx.frontier.push_back(a.neighbor);
    }
  }
  return false;
}

/// First undetermined out-edge of the component certainly reached via
/// included edges, in DFS preorder from s; kInvalidEdge if none.
EdgeId SelectEdgeDfs(FactoringContext& ctx) {
  StartTraversal(ctx);
  while (!ctx.frontier.empty()) {
    const NodeId v = ctx.frontier.back();
    ctx.frontier.pop_back();
    for (const AdjEntry& a : ctx.graph.OutEdges(v)) {
      if (ctx.states[a.edge] == EdgeState::kUndetermined) return a.edge;
      if (ctx.states[a.edge] == EdgeState::kIncluded &&
          !ctx.visited[a.neighbor]) {
        ctx.visited[a.neighbor] = 1;
        ctx.frontier.push_back(a.neighbor);
      }
    }
  }
  return kInvalidEdge;
}

double FactorRecurse(FactoringContext& ctx) {
  if (ctx.exhausted) return 0.0;
  if (++ctx.steps > ctx.max_steps) {
    ctx.exhausted = true;
    return 0.0;
  }
  const auto included = [](EdgeState st) { return st == EdgeState::kIncluded; };
  const auto not_excluded = [](EdgeState st) {
    return st != EdgeState::kExcluded;
  };
  if (StateReachable(ctx, included)) return 1.0;
  if (!StateReachable(ctx, not_excluded)) return 0.0;
  const EdgeId e = SelectEdgeDfs(ctx);
  if (e == kInvalidEdge) {
    // Unreachable: a residual s-t path always passes through an undetermined
    // edge leaving the certainly-reached component.
    return 0.0;
  }
  const double p = ctx.graph.prob(e);
  ctx.states[e] = EdgeState::kIncluded;
  const double with_e = FactorRecurse(ctx);
  ctx.states[e] = EdgeState::kExcluded;
  const double without_e = FactorRecurse(ctx);
  ctx.states[e] = EdgeState::kUndetermined;
  return p * with_e + (1.0 - p) * without_e;
}

}  // namespace

Result<double> ExactReliabilityEnumeration(const UncertainGraph& graph, NodeId s,
                                           NodeId t, uint32_t max_edges) {
  if (!graph.HasNode(s) || !graph.HasNode(t)) {
    return Status::InvalidArgument("exact enumeration: query node out of range");
  }
  const size_t m = graph.num_edges();
  if (m > max_edges) {
    return Status::OutOfRange(
        StrFormat("exact enumeration infeasible: m=%zu > %u", m, max_edges));
  }
  if (s == t) return 1.0;

  double reliability = 0.0;
  std::vector<uint8_t> mask(m, 0);
  std::vector<uint8_t> visited(graph.num_nodes(), 0);
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

Result<double> ExactReliabilityFactoring(const UncertainGraph& graph, NodeId s,
                                         NodeId t, uint64_t max_steps) {
  if (!graph.HasNode(s) || !graph.HasNode(t)) {
    return Status::InvalidArgument("exact factoring: query node out of range");
  }
  if (s == t) return 1.0;
  FactoringContext ctx{graph, s, t,
                       std::vector<EdgeState>(graph.num_edges(),
                                              EdgeState::kUndetermined),
                       0, max_steps, false,
                       std::vector<uint8_t>(graph.num_nodes(), 0), {}};
  const double r = FactorRecurse(ctx);
  if (ctx.exhausted) {
    return Status::OutOfRange(
        StrFormat("exact factoring exceeded %llu steps",
                  static_cast<unsigned long long>(max_steps)));
  }
  return r;
}

}  // namespace relcomp
