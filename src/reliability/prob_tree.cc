#include "reliability/prob_tree.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/format.h"
#include "common/timer.h"
#include "common/wire.h"
#include "graph/graph_builder.h"
#include "reliability/lazy_propagation.h"
#include "reliability/mc_sampling.h"
#include "reliability/recursive_sampling.h"
#include "reliability/recursive_stratified.h"

namespace relcomp {

namespace {

constexpr char kIndexMagic[8] = {'R', 'E', 'L', 'P', 'T', 'R', 'E', 'E'};

inline uint64_t PairKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Union probability of the directed edges tail -> head in `edges`.
double DirectedUnion(const std::vector<ProbTreeEdge>& edges, NodeId tail,
                     NodeId head) {
  double none = 1.0;
  for (const ProbTreeEdge& e : edges) {
    if (e.tail == tail && e.head == head) none *= (1.0 - e.prob);
  }
  return 1.0 - none;
}

/// \name Distance-distribution machinery for the [32]-original ablation.
///
/// A route's distance distribution is kept as a survival function
/// s[l] = P(no path of length <= l+1). Parallel independent routes multiply
/// survivals; series composition convolves the length densities.
/// @{

/// Survival of the union of all tail->head edges in `edges`.
std::vector<double> UnionSurvival(const std::vector<ProbTreeEdge>& edges,
                                  NodeId tail, NodeId head, uint32_t d) {
  std::vector<double> s(d, 1.0);
  for (const ProbTreeEdge& e : edges) {
    if (e.tail != tail || e.head != head) continue;
    if (e.survival.empty()) {
      for (uint32_t l = 0; l < d; ++l) s[l] *= (1.0 - e.prob);
    } else {
      for (uint32_t l = 0; l < d; ++l) s[l] *= e.survival[l];
    }
  }
  return s;
}

/// Length density from a survival function: density[k] = P(dist == k),
/// k in [1, d] (density[0] unused).
std::vector<double> DensityFromSurvival(const std::vector<double>& s) {
  std::vector<double> density(s.size() + 1, 0.0);
  density[1] = 1.0 - s[0];
  for (size_t k = 2; k <= s.size(); ++k) density[k] = s[k - 2] - s[k - 1];
  return density;
}

/// Survival of the series composition (sum of lengths) of two routes.
std::vector<double> SeriesSurvival(const std::vector<double>& s1,
                                   const std::vector<double>& s2, uint32_t d) {
  const std::vector<double> d1 = DensityFromSurvival(s1);
  const std::vector<double> d2 = DensityFromSurvival(s2);
  std::vector<double> sum_density(d + 2, 0.0);
  for (size_t i = 1; i < d1.size(); ++i) {
    if (d1[i] == 0.0) continue;
    for (size_t j = 1; j < d2.size() && i + j <= d + 1; ++j) {
      sum_density[i + j] += d1[i] * d2[j];
    }
  }
  std::vector<double> s(d, 0.0);
  double cumulative = 0.0;
  for (uint32_t l = 0; l < d; ++l) {
    cumulative += sum_density[l + 1];
    s[l] = 1.0 - cumulative;
  }
  return s;
}

/// Elementwise product (parallel independent routes).
std::vector<double> ProductSurvival(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}
/// @}

}  // namespace

double ProbTreeEdge::DistanceProbability(uint32_t length) const {
  if (survival.empty() || length == 0 || length > survival.size()) return 0.0;
  const double before = length >= 2 ? survival[length - 2] : 1.0;
  return before - survival[length - 1];
}

Result<ProbTreeIndex> ProbTreeIndex::Build(const UncertainGraph& graph,
                                           const ProbTreeOptions& options) {
  if (options.width == 0) {
    return Status::InvalidArgument("ProbTree: width must be >= 1");
  }
  Timer timer;
  ProbTreeIndex index;
  const size_t n = graph.num_nodes();
  index.num_nodes_ = n;
  index.covered_in_.assign(n, -1);

  // Undirected skeleton + live directed-edge pool keyed by unordered pair.
  std::vector<std::unordered_set<NodeId>> adj(n);
  std::unordered_map<uint64_t, std::vector<ProbTreeEdge>> pool;
  pool.reserve(graph.num_edges());
  const bool with_distributions = options.precompute_distance_distributions;
  const uint32_t d = std::max<uint32_t>(2, options.max_distance);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const EdgeRecord& rec = graph.edge(e);
    if (rec.tail == rec.head) continue;  // self-loops never affect s-t paths
    adj[rec.tail].insert(rec.head);
    adj[rec.head].insert(rec.tail);
    ProbTreeEdge edge{rec.tail, rec.head, rec.prob, /*origin=*/-1, {}};
    if (with_distributions) {
      // A single edge connects at length 1 with probability p, else never.
      edge.survival.assign(d, 1.0 - rec.prob);
    }
    pool[PairKey(rec.tail, rec.head)].push_back(std::move(edge));
  }

  // Min-degree elimination of nodes with degree <= w. Lazy FIFO bucket
  // queue: entries are validated against the live degree when popped, and
  // FIFO order matches the paper's creation-order narrative (Example 2:
  // node 3, then node 4, ... — earlier-discovered low-degree nodes first).
  std::vector<std::vector<NodeId>> buckets(options.width + 1);
  std::vector<size_t> bucket_head(options.width + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const size_t d = adj[v].size();
    if (d >= 1 && d <= options.width) buckets[d].push_back(v);
  }
  // Tracks which original nodes participate in bags, for parent assignment.
  std::vector<std::vector<int32_t>> node_bags(n);

  auto pop_candidate = [&]() -> NodeId {
    for (size_t d = 1; d <= options.width; ++d) {
      while (bucket_head[d] < buckets[d].size()) {
        const NodeId v = buckets[d][bucket_head[d]++];
        if (index.covered_in_[v] == -1 && adj[v].size() == d) return v;
      }
    }
    return kInvalidNode;
  };
  auto requeue = [&](NodeId v) {
    const size_t d = adj[v].size();
    if (index.covered_in_[v] == -1 && d >= 1 && d <= options.width) {
      buckets[d].push_back(v);
    }
  };

  for (NodeId v = pop_candidate(); v != kInvalidNode; v = pop_candidate()) {
    const int32_t bag_id = static_cast<int32_t>(index.bags_.size());
    Bag bag;
    bag.covered = v;
    bag.boundary.assign(adj[v].begin(), adj[v].end());
    std::sort(bag.boundary.begin(), bag.boundary.end());
    bag.nodes = bag.boundary;
    bag.nodes.push_back(v);

    // Absorb every live edge between nodes of the bag (Alg. 7 lines 7-9):
    // covered-boundary pairs plus boundary-boundary pairs.
    auto absorb_pair = [&](NodeId a, NodeId b) {
      const auto it = pool.find(PairKey(a, b));
      if (it == pool.end()) return;
      for (ProbTreeEdge& e : it->second) bag.edges.push_back(e);
      pool.erase(it);
    };
    for (size_t i = 0; i < bag.boundary.size(); ++i) {
      absorb_pair(v, bag.boundary[i]);
      for (size_t j = i + 1; j < bag.boundary.size(); ++j) {
        absorb_pair(bag.boundary[i], bag.boundary[j]);
      }
    }

    // Remove v from the skeleton.
    index.covered_in_[v] = bag_id;
    for (NodeId u : bag.boundary) adj[u].erase(v);
    adj[v].clear();

    // Add the clique between v's neighbors with aggregated probabilities:
    // virtual(a->b) = 1 - (1 - direct(a->b)) (1 - P(a->v) P(v->b))
    // — the paper's O(w^2) pairwise aggregation (Section 2.7).
    for (size_t i = 0; i < bag.boundary.size(); ++i) {
      for (size_t j = i + 1; j < bag.boundary.size(); ++j) {
        const NodeId a = bag.boundary[i];
        const NodeId b = bag.boundary[j];
        const double a_to_v = DirectedUnion(bag.edges, a, v);
        const double v_to_b = DirectedUnion(bag.edges, v, b);
        const double b_to_v = DirectedUnion(bag.edges, b, v);
        const double v_to_a = DirectedUnion(bag.edges, v, a);
        const double ab = 1.0 - (1.0 - DirectedUnion(bag.edges, a, b)) *
                                    (1.0 - a_to_v * v_to_b);
        const double ba = 1.0 - (1.0 - DirectedUnion(bag.edges, b, a)) *
                                    (1.0 - b_to_v * v_to_a);
        auto& pair_pool = pool[PairKey(a, b)];
        if (ab > 0.0) {
          ProbTreeEdge edge{a, b, std::min(ab, 1.0), bag_id, {}};
          if (with_distributions) {
            // [32]-original: full distance distribution per boundary pair —
            // direct routes in parallel with the two-hop series through v.
            edge.survival = ProductSurvival(
                UnionSurvival(bag.edges, a, b, d),
                SeriesSurvival(UnionSurvival(bag.edges, a, v, d),
                               UnionSurvival(bag.edges, v, b, d), d));
          }
          pair_pool.push_back(std::move(edge));
        }
        if (ba > 0.0) {
          ProbTreeEdge edge{b, a, std::min(ba, 1.0), bag_id, {}};
          if (with_distributions) {
            edge.survival = ProductSurvival(
                UnionSurvival(bag.edges, b, a, d),
                SeriesSurvival(UnionSurvival(bag.edges, b, v, d),
                               UnionSurvival(bag.edges, v, a, d), d));
          }
          pair_pool.push_back(std::move(edge));
        }
        adj[a].insert(b);
        adj[b].insert(a);
      }
    }
    for (NodeId u : bag.boundary) requeue(u);

    for (NodeId u : bag.nodes) node_bags[u].push_back(bag_id);
    index.bags_.push_back(std::move(bag));
  }

  // Root: all surviving pool edges (original unmarked + topmost virtual).
  for (auto& [key, edges] : pool) {
    (void)key;
    for (ProbTreeEdge& e : edges) index.root_edges_.push_back(e);
  }

  // Parent assignment (Alg. 7 lines 18-25): the earliest later-created bag
  // whose node set contains this bag's whole boundary; else the root.
  for (int32_t b = 0; b < static_cast<int32_t>(index.bags_.size()); ++b) {
    Bag& bag = index.bags_[b];
    int32_t parent = -1;
    if (!bag.boundary.empty()) {
      // Intersect the creation-ordered bag lists of all boundary nodes.
      int32_t best = INT32_MAX;
      const std::vector<int32_t>& first = node_bags[bag.boundary[0]];
      for (int32_t candidate : first) {
        if (candidate <= b || candidate >= best) continue;
        bool in_all = true;
        for (size_t i = 1; i < bag.boundary.size() && in_all; ++i) {
          const auto& list = node_bags[bag.boundary[i]];
          in_all = std::binary_search(list.begin(), list.end(), candidate);
        }
        if (in_all) best = candidate;
      }
      if (best != INT32_MAX) parent = best;
    }
    bag.parent = parent;
  }

  index.stats_.build_seconds = timer.ElapsedSeconds();
  index.stats_.num_bags = index.bags_.size();
  size_t covered = 0;
  for (int32_t c : index.covered_in_) covered += (c >= 0);
  index.stats_.root_nodes = n - covered;
  index.stats_.root_edges = index.root_edges_.size();
  return index;
}

Result<RootedGraph> ProbTreeIndex::ExtractQueryGraph(NodeId s, NodeId t) const {
  if (s >= num_nodes_ || t >= num_nodes_) {
    return Status::InvalidArgument("ProbTree: query node out of range");
  }
  // Bags to merge: the root-paths of the bags covering s and t (Alg. 8).
  std::unordered_set<int32_t> merged;
  for (const NodeId x : {s, t}) {
    int32_t b = covered_in_[x];
    while (b >= 0 && merged.insert(b).second) b = bags_[b].parent;
  }

  GraphBuilder builder;
  std::unordered_map<NodeId, NodeId> remap;
  auto map_node = [&](NodeId v) {
    const auto [it, inserted] = remap.emplace(v, 0);
    if (inserted) it->second = builder.AddNode();
    return it->second;
  };
  const NodeId ms = map_node(s);
  const NodeId mt = map_node(t);

  // A virtual edge is dropped iff the bag that produced it is merged back in
  // ("delete the reliability in parent(B) resulting from B").
  auto add_edges = [&](const std::vector<ProbTreeEdge>& edges) -> Status {
    for (const ProbTreeEdge& e : edges) {
      if (e.origin >= 0 && merged.count(e.origin) > 0) continue;
      RELCOMP_RETURN_NOT_OK(builder.AddEdge(map_node(e.tail), map_node(e.head),
                                            e.prob));
    }
    return Status::OK();
  };
  RELCOMP_RETURN_NOT_OK(add_edges(root_edges_));
  // Deterministic order: hash-set iteration order must not leak into the
  // extracted graph (it drives downstream RNG consumption).
  std::vector<int32_t> merged_sorted(merged.begin(), merged.end());
  std::sort(merged_sorted.begin(), merged_sorted.end());
  for (const int32_t b : merged_sorted) {
    RELCOMP_RETURN_NOT_OK(add_edges(bags_[b].edges));
  }

  RootedGraph rooted;
  RELCOMP_ASSIGN_OR_RETURN(rooted.graph, builder.Build());
  rooted.source = ms;
  rooted.target = mt;
  return rooted;
}

size_t ProbTreeIndex::MemoryBytes() const {
  auto edge_bytes = [](const std::vector<ProbTreeEdge>& edges) {
    size_t total = edges.size() * sizeof(ProbTreeEdge);
    for (const ProbTreeEdge& e : edges) {
      total += e.survival.size() * sizeof(double);
    }
    return total;
  };
  size_t total =
      covered_in_.size() * sizeof(int32_t) + edge_bytes(root_edges_);
  for (const Bag& bag : bags_) {
    total += sizeof(Bag) + bag.nodes.size() * sizeof(NodeId) +
             bag.boundary.size() * sizeof(NodeId) + edge_bytes(bag.edges);
  }
  return total;
}

Status ProbTreeIndex::SaveToFile(const std::string& path) const {
  std::string bytes(kIndexMagic, sizeof(kIndexMagic));
  AppendBlock(&bytes);
  return WriteFileBytes(path, bytes);
}

Result<ProbTreeIndex> ProbTreeIndex::LoadFromFile(const std::string& path) {
  std::string bytes;
  RELCOMP_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (bytes.size() < sizeof(kIndexMagic) ||
      std::memcmp(bytes.data(), kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return Status::IOError("not a ProbTree index: " + path);
  }
  return FromBlock(bytes.data() + sizeof(kIndexMagic),
                   bytes.size() - sizeof(kIndexMagic));
}

void ProbTreeIndex::AppendBlock(std::string* out) const {
  WireWriter writer(out);
  auto write_edges = [&writer](const std::vector<ProbTreeEdge>& edges) {
    writer.PutU64(edges.size());
    for (const ProbTreeEdge& e : edges) {
      writer.PutU32(e.tail);
      writer.PutU32(e.head);
      writer.PutF64(e.prob);
      writer.PutI32(e.origin);
    }
  };
  writer.PutU64(num_nodes_);
  writer.PutU64(bags_.size());
  for (const Bag& bag : bags_) {
    writer.PutU32(bag.covered);
    writer.PutI32(bag.parent);
    writer.PutU64(bag.boundary.size());
    for (const NodeId u : bag.boundary) writer.PutU32(u);
    write_edges(bag.edges);
  }
  write_edges(root_edges_);
}

Result<ProbTreeIndex> ProbTreeIndex::FromBlock(const void* data, size_t size) {
  WireReader reader(data, size);
  bool ok = true;
  uint64_t num_nodes = 0, num_bags = 0;
  // A bag reference (a parent, an edge's origin) is a bag id or -1 (none);
  // anything else would index bags_ out of bounds in ExtractQueryGraph.
  auto is_bag_or_none = [&num_bags](int32_t bag) {
    return bag >= -1 && bag < static_cast<int64_t>(num_bags);
  };
  // A node id (a boundary node, an edge endpoint) names one of the index's
  // nodes; ExtractQueryGraph would otherwise build graphs over nodes the
  // index lacks.
  auto is_node = [&num_nodes](NodeId node) { return node < num_nodes; };
  auto read_edges = [&](std::vector<ProbTreeEdge>& edges) {
    uint64_t count = 0;
    ok = ok && reader.ReadU64(&count);
    // 20 bytes per serialized edge: a declared count beyond the remaining
    // bytes is corruption, not a resize request.
    if (!ok || count > reader.remaining() / 20) {
      ok = false;
      return;
    }
    edges.resize(count);
    for (auto& e : edges) {
      ok = ok && reader.ReadU32(&e.tail) && reader.ReadU32(&e.head) &&
           reader.ReadF64(&e.prob) && reader.ReadI32(&e.origin) &&
           is_node(e.tail) && is_node(e.head) && is_bag_or_none(e.origin);
    }
  };
  ProbTreeIndex index;
  ok = reader.ReadU64(&num_nodes) && reader.ReadU64(&num_bags);
  // Sanity bounds before the allocations they size.
  if (!ok || num_bags > num_nodes || num_nodes > (size_t{1} << 40)) {
    return Status::IOError("ProbTree block: malformed header");
  }
  index.num_nodes_ = num_nodes;
  index.covered_in_.assign(num_nodes, -1);
  index.bags_.resize(num_bags);
  for (uint64_t b = 0; ok && b < num_bags; ++b) {
    Bag& bag = index.bags_[b];
    uint64_t boundary = 0;
    ok = reader.ReadU32(&bag.covered) && reader.ReadI32(&bag.parent) &&
         reader.ReadU64(&boundary);
    if (!ok || boundary > reader.remaining() / sizeof(NodeId) ||
        bag.covered >= num_nodes || !is_bag_or_none(bag.parent)) {
      ok = false;
      break;
    }
    bag.boundary.resize(boundary);
    for (auto& u : bag.boundary) ok = ok && reader.ReadU32(&u) && is_node(u);
    bag.nodes = bag.boundary;
    bag.nodes.push_back(bag.covered);
    read_edges(bag.edges);
    if (ok) index.covered_in_[bag.covered] = static_cast<int32_t>(b);
  }
  if (ok) read_edges(index.root_edges_);
  if (!ok) return Status::IOError("ProbTree block: truncated or malformed");
  index.stats_.num_bags = index.bags_.size();
  index.stats_.root_edges = index.root_edges_.size();
  size_t covered = 0;
  for (const int32_t c : index.covered_in_) covered += (c >= 0);
  index.stats_.root_nodes = index.num_nodes_ - covered;
  return index;
}

Result<std::shared_ptr<const ProbTreeIndex>> ProbTreeIndex::BuildShared(
    const UncertainGraph& graph, const ProbTreeOptions& options) {
  RELCOMP_ASSIGN_OR_RETURN(ProbTreeIndex index, Build(graph, options));
  return std::make_shared<const ProbTreeIndex>(std::move(index));
}

ProbTreeEstimator::ProbTreeEstimator(const UncertainGraph& graph,
                                     std::shared_ptr<const ProbTreeIndex> index,
                                     ProbTreeInner inner)
    : graph_(graph), index_(std::move(index)), inner_(inner) {
  switch (inner_) {
    case ProbTreeInner::kMonteCarlo:
      name_ = "ProbTree";
      break;
    case ProbTreeInner::kLazyPropagationPlus:
      name_ = "ProbTree+LP+";
      break;
    case ProbTreeInner::kRecursive:
      name_ = "ProbTree+RHH";
      break;
    case ProbTreeInner::kRecursiveStratified:
      name_ = "ProbTree+RSS";
      break;
  }
}

Result<std::unique_ptr<ProbTreeEstimator>> ProbTreeEstimator::Create(
    const UncertainGraph& graph, const ProbTreeOptions& options,
    ProbTreeInner inner) {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<const ProbTreeIndex> index,
                           ProbTreeIndex::BuildShared(graph, options));
  return CreateWithIndex(graph, std::move(index), inner);
}

Result<std::unique_ptr<ProbTreeEstimator>> ProbTreeEstimator::CreateWithIndex(
    const UncertainGraph& graph, std::shared_ptr<const ProbTreeIndex> index,
    ProbTreeInner inner) {
  if (index == nullptr) {
    return Status::InvalidArgument("ProbTree: index must not be null");
  }
  return std::unique_ptr<ProbTreeEstimator>(
      new ProbTreeEstimator(graph, std::move(index), inner));
}

Result<double> ProbTreeEstimator::DoEstimate(const ReliabilityQuery& query,
                                             const EstimateOptions& options,
                                             MemoryTracker* memory) {
  if (query.source == query.target) return 1.0;
  RELCOMP_ASSIGN_OR_RETURN(RootedGraph rooted,
                           index_->ExtractQueryGraph(query.source, query.target));
  ScopedAllocation extracted(memory, rooted.graph.MemoryBytes());

  std::unique_ptr<Estimator> inner;
  switch (inner_) {
    case ProbTreeInner::kMonteCarlo:
      inner = std::make_unique<MonteCarloEstimator>(rooted.graph);
      break;
    case ProbTreeInner::kLazyPropagationPlus:
      inner = std::make_unique<LazyPropagationEstimator>(rooted.graph);
      break;
    case ProbTreeInner::kRecursive:
      inner = std::make_unique<RecursiveEstimator>(rooted.graph);
      break;
    case ProbTreeInner::kRecursiveStratified:
      inner = std::make_unique<RecursiveStratifiedEstimator>(rooted.graph);
      break;
  }
  RELCOMP_ASSIGN_OR_RETURN(
      EstimateResult result,
      inner->Estimate(ReliabilityQuery{rooted.source, rooted.target}, options));
  if (memory != nullptr) {
    memory->Add(result.peak_memory_bytes);
    memory->Release(result.peak_memory_bytes);
  }
  return result.reliability;
}

}  // namespace relcomp
