#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "eval/query_gen.h"

namespace relbench {

namespace {

using relcomp::EngineQuery;
using relcomp::NodeId;
using relcomp::Rng;
using relcomp::UncertainGraph;

/// Seed of the fixed source panels. A query's cost is set mostly by its
/// source (how much of the graph a sampled world reaches from it), so
/// drawing sources once keeps the work of a repetition nearly the same for
/// every --seed; the seed draws everything else.
constexpr uint64_t kPopulationSeed = 0x50505050ULL;

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.UniformInt(i)]);
  }
}

/// Nodes at exactly h BFS hops from a source, for h = 1..max_hops (the rings
/// the paper's generator draws targets from, Section 3.1.3).
class RingFinder {
 public:
  explicit RingFinder(const UncertainGraph& graph)
      : graph_(graph), stamp_(graph.num_nodes(), 0) {}

  /// rings()[h] after the call; rings beyond the last reachable one are
  /// empty.
  const std::vector<std::vector<NodeId>>& Find(NodeId source,
                                               uint32_t max_hops) {
    rings_.assign(max_hops + 1, {});
    ++epoch_;
    stamp_[source] = epoch_;
    rings_[0].push_back(source);
    for (uint32_t h = 1; h <= max_hops && !rings_[h - 1].empty(); ++h) {
      for (const NodeId v : rings_[h - 1]) {
        for (const relcomp::AdjEntry& edge : graph_.OutEdges(v)) {
          if (stamp_[edge.neighbor] == epoch_) continue;
          stamp_[edge.neighbor] = epoch_;
          rings_[h].push_back(edge.neighbor);
        }
      }
    }
    return rings_;
  }

 private:
  const UncertainGraph& graph_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<std::vector<NodeId>> rings_;
};

/// `take` distinct uniform picks from `ring` (fewer when it is smaller).
std::vector<NodeId> Pick(std::vector<NodeId> ring, size_t take, Rng& rng) {
  take = std::min(take, ring.size());
  for (size_t i = 0; i < take; ++i) {  // partial Fisher-Yates
    std::swap(ring[i], ring[i + rng.UniformInt(ring.size() - i)]);
  }
  ring.resize(take);
  return ring;
}

/// The fixed source panel: the first `count` distinct sources the paper's
/// generator (h = 2) draws under kPopulationSeed.
std::vector<NodeId> SourcePanel(const UncertainGraph& graph, size_t count) {
  relcomp::QueryGenOptions options;
  options.num_pairs = static_cast<uint32_t>(2 * count);
  options.hop_distance = 2;
  options.seed = kPopulationSeed;
  std::vector<NodeId> sources;
  relcomp::Result<std::vector<relcomp::ReliabilityQuery>> pairs =
      relcomp::GenerateQueries(graph, options);
  if (!pairs.ok()) return sources;
  std::unordered_set<NodeId> seen;
  for (const relcomp::ReliabilityQuery& pair : *pairs) {
    if (sources.size() < count && seen.insert(pair.source).second) {
      sources.push_back(pair.source);
    }
  }
  return sources;
}

/// st_mc_biomine: one h = 2 pair per panel source, the target drawn
/// uniformly from the source's 2-hop ring (the paper's rule), in seeded
/// order.
std::vector<EngineQuery> BioMinePairs(const UncertainGraph& graph,
                                      uint64_t seed, size_t count) {
  Rng rng(seed);
  RingFinder rings(graph);
  std::vector<EngineQuery> queries;
  for (const NodeId source : SourcePanel(graph, count)) {
    for (const NodeId target : Pick(rings.Find(source, 2)[2], 1, rng)) {
      queries.push_back(EngineQuery::St(source, target));
    }
  }
  Shuffle(queries, rng);
  return queries;
}

/// st_mc_nethept: `count` distinct pairs at h in {2, 3, 4}, everything drawn
/// from the seed. Queries are cheap here, so a repetition holds enough of
/// them that the draw barely moves its total work. One depth-4 BFS per
/// source yields up to kPerRing targets on each ring (the paper's generator
/// runs one BFS per pair, too slow for this many); the shuffle mixes sources
/// and distances within every chunk.
std::vector<EngineQuery> NetHeptRings(const UncertainGraph& graph,
                                      uint64_t seed, size_t count) {
  constexpr uint32_t kMaxHops = 4;
  constexpr size_t kPerRing = 8;
  Rng rng(seed);
  std::vector<NodeId> sources(graph.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  Shuffle(sources, rng);
  RingFinder rings(graph);
  std::vector<EngineQuery> queries;
  for (const NodeId source : sources) {
    if (queries.size() >= count) break;
    const std::vector<std::vector<NodeId>>& ring = rings.Find(source, kMaxHops);
    for (uint32_t hops = 2; hops <= kMaxHops; ++hops) {
      for (const NodeId target : Pick(ring[hops], kPerRing, rng)) {
        queries.push_back(EngineQuery::St(source, target));
      }
    }
  }
  Shuffle(queries, rng);
  if (queries.size() > count) queries.resize(count);
  return queries;
}

/// A stream of `count` queries over `keys` keys that arrive one by one at
/// evenly spaced positions: key j's first queries (`arrive(j)`) come at
/// position j * count / keys, and every position in between repeats an
/// arrived key drawn Zipf(0.9) by arrival order (`repeat(j)`; the earliest
/// arrival is the hottest). Even spacing gives every stretch of the stream
/// — every chunk, every second of serving — the same share of cold work,
/// so latency percentiles do not hinge on where a seed bunched the misses.
template <typename Arrive, typename Repeat>
std::vector<EngineQuery> SteadyStream(size_t keys, size_t count, Rng& rng,
                                      Arrive arrive, Repeat repeat) {
  std::vector<EngineQuery> stream;
  if (keys == 0) return stream;
  const Zipf zipf(keys, 0.9);
  size_t arrived = 0;
  while (stream.size() < count) {
    if (arrived < keys && stream.size() >= arrived * count / keys) {
      for (const EngineQuery& query : arrive(arrived)) stream.push_back(query);
      ++arrived;
      continue;
    }
    size_t key = zipf.Draw(rng);
    while (key >= arrived) key = zipf.Draw(rng);
    stream.push_back(repeat(key));
  }
  return stream;
}

/// sweep_bfs_lastfm, over a panel of count / 10 sources in seeded arrival
/// order. A source arrives with one s-t query (its target drawn from the
/// 2-hop ring) and one sweep query; its repeats are 50 % top-k (k in
/// {5, 10, 20}), 30 % reliable-set (eta in {0.05, 0.1}), 20 % s-t — so a
/// repeated source mostly brings a new parameterization. Each arrival costs
/// two world resamplings (one per sweep source, one per distinct s-t
/// query), and arrivals are evenly spaced.
std::vector<EngineQuery> LastFmSweepMix(const UncertainGraph& graph,
                                        uint64_t seed, size_t count) {
  static constexpr uint32_t kTopK[] = {5, 10, 20};
  static constexpr double kEta[] = {0.05, 0.1};
  Rng rng(seed);
  RingFinder rings(graph);
  std::vector<relcomp::ReliabilityQuery> hot;
  for (const NodeId source :
       SourcePanel(graph, std::max<size_t>(count / 10, 1))) {
    for (const NodeId target : Pick(rings.Find(source, 2)[2], 1, rng)) {
      hot.push_back({source, target});
    }
  }
  Shuffle(hot, rng);
  auto sweep = [&](NodeId source) {
    return rng.NextDouble() < 0.5 / 0.8
               ? EngineQuery::TopK(source, kTopK[rng.UniformInt(3)])
               : EngineQuery::ReliableSet(source, kEta[rng.UniformInt(2)]);
  };
  return SteadyStream(
      hot.size(), count, rng,
      [&](size_t j) {
        return std::vector<EngineQuery>{
            EngineQuery::St(hot[j].source, hot[j].target), sweep(hot[j].source)};
      },
      [&](size_t j) {
        return rng.NextDouble() < 0.8
                   ? sweep(hot[j].source)
                   : EngineQuery::St(hot[j].source, hot[j].target);
      });
}

/// serve_mixed_biomine: a catalogue of count / 4 distinct requests over a
/// panel of count / 40 sources — per source 4 s-t and 2 distance (d = 4)
/// requests to seeded 2-hop targets, top-k for k in {5, 10}, and
/// reliable-set for eta in {0.1, 0.2} (40/20/20/20 %). Entries arrive in
/// seeded order, each followed on average by three Zipf(0.9) repeats: a
/// 75 % result-cache hit rate whose misses are the same work for every seed.
std::vector<EngineQuery> BioMineServeMix(const UncertainGraph& graph,
                                         uint64_t seed, size_t count) {
  Rng rng(seed);
  RingFinder rings(graph);
  std::vector<EngineQuery> catalogue;
  for (const NodeId source :
       SourcePanel(graph, std::max<size_t>(count / 40, 1))) {
    const std::vector<NodeId> targets = Pick(rings.Find(source, 2)[2], 4, rng);
    for (size_t i = 0; i < targets.size(); ++i) {
      catalogue.push_back(EngineQuery::St(source, targets[i]));
      if (i < 2) catalogue.push_back(EngineQuery::Distance(source, targets[i], 4));
    }
    catalogue.push_back(EngineQuery::TopK(source, 5));
    catalogue.push_back(EngineQuery::TopK(source, 10));
    catalogue.push_back(EngineQuery::ReliableSet(source, 0.1));
    catalogue.push_back(EngineQuery::ReliableSet(source, 0.2));
  }
  Shuffle(catalogue, rng);
  return SteadyStream(
      catalogue.size(), count, rng,
      [&](size_t j) { return std::vector<EngineQuery>{catalogue[j]}; },
      [&](size_t j) { return catalogue[j]; });
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  using relcomp::DatasetId;
  using relcomp::EstimatorKind;
  using relcomp::Scale;
  // Chunks are small enough that one repetition holds enough calls for its
  // tail percentile. sweep_bfs_lastfm's chunk equals its arrival spacing
  // (one new source per 10 queries), so every chunk carries exactly one
  // arrival and its latency does not jump between one and two arrivals.
  // st_mc_nethept reports p90, not p99: its p99 call (a few ms) is set by
  // how often the host preempts a worker, and read 4.6 to 9.0 ms across
  // one set of ten runs.
  static const std::vector<WorkloadSpec> specs = {
      {"st_mc_biomine", DatasetId::kBioMine, Scale::kMedium,
       EstimatorKind::kMonteCarlo, 1000, 1, 10, 1, 400, 40,
       0.75, 120, BioMinePairs},
      {"st_mc_nethept", DatasetId::kNetHept, Scale::kMedium,
       EstimatorKind::kMonteCarlo, 1000, 1, 100, 1, 100000,
       2000, 0.90, 8000, NetHeptRings},
      {"sweep_bfs_lastfm", DatasetId::kLastFm, Scale::kSmall,
       EstimatorKind::kBfsSharing, 1000, 4, 10, 1, 480, 80,
       0.75, 128, LastFmSweepMix},
      {"serve_mixed_biomine", DatasetId::kBioMine, Scale::kMedium,
       EstimatorKind::kMonteCarlo, 1000, 8, 1, kThreads, 1600,
       160, 0.99, 160, BioMineServeMix},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

relcomp::EngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  relcomp::EngineOptions options;
  options.num_threads = kThreads;
  options.kind = spec.kind;
  options.num_samples = spec.num_samples;
  options.num_strata = spec.num_strata;
  return options;
}

}  // namespace relbench
