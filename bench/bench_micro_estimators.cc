// Micro-benchmarks (google-benchmark): per-query cost of each estimator at
// fixed K on the LastFM analogue, plus the core primitives (possible-world
// sampling, BFS Sharing bit-vector propagation, ProbTree query-graph
// extraction). Complements the table benches with tight per-op numbers.

#include <algorithm>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/coin_pass.h"
#include "common/rng.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "graph/possible_world.h"
#include "reliability/bfs_sharing.h"
#include "reliability/estimator_factory.h"
#include "reliability/lazy_sampling_bfs.h"

namespace relcomp {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ReliabilityQuery> queries;

  static const Fixture& Get() {
    static const Fixture* fixture = [] {
      auto* f = new Fixture();
      f->dataset = MakeDataset(DatasetId::kLastFm, Scale::kTiny, 7).MoveValue();
      QueryGenOptions options;
      options.num_pairs = 8;
      options.seed = 11;
      f->queries = GenerateQueries(f->dataset.graph, options).MoveValue();
      return f;
    }();
    return *fixture;
  }
};

void BM_Estimator(benchmark::State& state, EstimatorKind kind) {
  const Fixture& fixture = Fixture::Get();
  FactoryOptions factory;
  factory.bfs_sharing.index_samples = 2048;
  auto estimator = MakeEstimator(kind, fixture.dataset.graph, factory);
  if (!estimator.ok()) {
    state.SkipWithError(estimator.status().ToString().c_str());
    return;
  }
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  size_t qi = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    EstimateOptions opts;
    opts.num_samples = k;
    opts.seed = ++seed;
    const auto result =
        (*estimator)->Estimate(fixture.queries[qi % fixture.queries.size()], opts);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->reliability);
    ++qi;
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * k, benchmark::Counter::kIsRate);
}

BENCHMARK_CAPTURE(BM_Estimator, MC, EstimatorKind::kMonteCarlo)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, BFSSharing, EstimatorKind::kBfsSharing)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, ProbTree, EstimatorKind::kProbTree)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, LPplus, EstimatorKind::kLazyPropagationPlus)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RHH, EstimatorKind::kRecursive)
    ->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(BM_Estimator, RSS, EstimatorKind::kRecursiveStratified)
    ->Arg(250)->Arg(1000);

// The lazy-sampling BFS under every MC estimator, alone: full sweeps (no
// target, no hop bound) from the fixture's sources, 100 samples per
// iteration, in both storage layouts. Compare against BM_SampleWorld: a
// sweep draws only the arcs its BFS reaches.
void BM_LazySamplingBfs(benchmark::State& state, StorageLayout layout) {
  const Fixture& fixture = Fixture::Get();
  const UncertainGraph graph =
      GraphBuilder::FromGraph(fixture.dataset.graph).Build(layout).MoveValue();
  LazySamplingBfs sampler(graph);
  std::vector<uint32_t> hits(graph.num_nodes(), 0);
  Rng rng(5);
  size_t qi = 0;
  for (auto _ : state) {
    const NodeId source = fixture.queries[qi++ % fixture.queries.size()].source;
    benchmark::DoNotOptimize(
        sampler.AccumulateReached({.source = source}, 100, rng, hits));
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100,
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_LazySamplingBfs, Raw, StorageLayout::kRaw);
BENCHMARK_CAPTURE(BM_LazySamplingBfs, Compact, StorageLayout::kCompact);

/// Arcs examined and coins drawn by lazy-sampling BFS samples from s to t.
struct KernelWork {
  uint64_t hits = 0;
  uint64_t arcs = 0;
  uint64_t draws = 0;
};

/// A plain loop that draws exactly like LazySamplingBfs::CountHits and
/// counts its work, so the timed kernel itself carries no counters.
KernelWork CountKernelWork(const UncertainGraph& graph, NodeId s, NodeId t,
                           uint32_t samples, Rng& rng) {
  KernelWork work;
  std::vector<uint8_t> reached(graph.num_nodes(), 0);
  std::vector<NodeId> queue;
  for (uint32_t i = 0; i < samples; ++i) {
    queue.assign(1, s);
    reached[s] = 1;
    bool hit = false;
    for (size_t head = 0; head < queue.size() && !hit; ++head) {
      for (const AdjEntry& a : graph.OutEdges(queue[head])) {
        ++work.arcs;
        if (reached[a.neighbor]) continue;
        work.draws += !(a.prob <= 0.0 || a.prob >= 1.0);
        if (!rng.Bernoulli(a.prob)) continue;
        if (a.neighbor == t) {
          hit = true;
          break;
        }
        reached[a.neighbor] = 1;
        queue.push_back(a.neighbor);
      }
    }
    for (const NodeId v : queue) reached[v] = 0;
    work.hits += hit;
  }
  return work;
}

// MC s-t shaped like relbench's st_mc_biomine: 8 h = 2 pairs on the BioMine
// medium analogue at K = 1000, each from its own seed, all 8 per iteration.
// `time_per_arc` and `time_per_draw` divide the time by the arcs examined
// and the coins drawn, which CountKernelWork counts before timing starts.
void BM_LazySamplingBfsSt(benchmark::State& state, StorageLayout layout) {
  constexpr uint32_t kSamples = 1000;
  static const Dataset* dataset = new Dataset(
      MakeDataset(DatasetId::kBioMine, Scale::kMedium, 7).MoveValue());
  static const std::vector<ReliabilityQuery>* pairs = [] {
    QueryGenOptions options;
    options.num_pairs = 8;
    options.hop_distance = 2;
    options.seed = 11;
    return new std::vector<ReliabilityQuery>(
        GenerateQueries(dataset->graph, options).MoveValue());
  }();
  const UncertainGraph graph =
      GraphBuilder::FromGraph(dataset->graph).Build(layout).MoveValue();
  LazySamplingBfs sampler(graph);
  KernelWork work;
  uint64_t kernel_hits = 0;
  for (size_t i = 0; i < pairs->size(); ++i) {
    const ReliabilityQuery& q = (*pairs)[i];
    Rng reference_rng(i);
    const KernelWork pair =
        CountKernelWork(graph, q.source, q.target, kSamples, reference_rng);
    work.hits += pair.hits;
    work.arcs += pair.arcs;
    work.draws += pair.draws;
    Rng rng(i);
    kernel_hits += sampler.CountHits({q.source, q.target}, kSamples, rng);
  }
  if (kernel_hits != work.hits) {
    state.SkipWithError("the counting loop disagrees with the kernel");
    return;
  }
  for (auto _ : state) {
    for (size_t i = 0; i < pairs->size(); ++i) {
      Rng rng(i);
      benchmark::DoNotOptimize(sampler.CountHits(
          {(*pairs)[i].source, (*pairs)[i].target}, kSamples, rng));
    }
  }
  const auto per = [](uint64_t count) {
    return benchmark::Counter(static_cast<double>(count),
                              benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  };
  state.counters["time_per_arc"] = per(work.arcs);
  state.counters["time_per_draw"] = per(work.draws);
}
BENCHMARK_CAPTURE(BM_LazySamplingBfsSt, Raw, StorageLayout::kRaw)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LazySamplingBfsSt, Compact, StorageLayout::kCompact)
    ->Unit(benchmark::kMillisecond);

// BFS Sharing's per-query index update (the paper's Table 15 cost) alone:
// one in-place resample of all L = 1500 worlds of every edge on
// LastFM-small, in both storage layouts. `time_per_world_bit` divides the
// time by m times the worlds stored. The Joined cases add one thread that
// helps fill the coin pass from before the resample starts, as an engine's
// idle HelperPool thread does; the words are the same. The
// Narrowed cases resample a generation narrowed to an engine's budget
// K = 1000, 16 of the 24 words per edge, as the engine's replicas do.
void BM_BfsSharingResample(benchmark::State& state, StorageLayout layout,
                           bool joined, uint32_t budget) {
  static const Dataset* dataset = new Dataset(
      MakeDataset(DatasetId::kLastFm, Scale::kSmall, 7).MoveValue());
  const UncertainGraph graph =
      GraphBuilder::FromGraph(dataset->graph).Build(layout).MoveValue();
  BfsSharingOptions options;
  options.index_samples = 1500;
  const auto index =
      BfsSharingIndex::Build(graph, options, 1, nullptr, budget).MoveValue();
  uint64_t seed = 1;
  for (auto _ : state) {
    CoinPass coins;
    std::thread helper;
    if (joined) helper = std::thread([&coins] { coins.Help(); });
    index->Resample(graph, ++seed, &coins);
    if (joined) helper.join();
    benchmark::DoNotOptimize(index->edge_words(0));
    benchmark::ClobberMemory();
  }
  state.counters["time_per_world_bit"] = benchmark::Counter(
      static_cast<double>(graph.num_edges()) * index->stored_worlds(),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_BfsSharingResample, Raw, StorageLayout::kRaw, false, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BfsSharingResample, Compact, StorageLayout::kCompact,
                  false, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BfsSharingResample, RawJoined, StorageLayout::kRaw, true,
                  0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BfsSharingResample, CompactJoined,
                  StorageLayout::kCompact, true, 0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BfsSharingResample, RawNarrowed, StorageLayout::kRaw,
                  false, 1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BfsSharingResample, RawJoinedNarrowed,
                  StorageLayout::kRaw, true, 1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The coin pass of that resample alone, on one thread: LastFM-small's coin
// edges (BitVector::FillDrawsEveryBit; 4,988 with the dataset seed 7 used
// here, 7.48 M coins at L = 1500; relbench's seed 20190410 gives 4,903 and
// 7.35 M) filled from the start states the serial pass records for seed 1,
// one edge at a time (Scalar, FillBernoulliWords) or four at a time
// (FourLane, FillCoinWords4; the last one to three edges one at a time, as
// CoinPass does). `time_per_coin` divides the time by the coins tossed.
void BM_CoinFill(benchmark::State& state, bool four_lanes) {
  constexpr uint32_t kWorlds = 1500;
  constexpr size_t kWordsPerEdge = (kWorlds + 63) / 64;
  static const Dataset* dataset = new Dataset(
      MakeDataset(DatasetId::kLastFm, Scale::kSmall, 7).MoveValue());
  const UncertainGraph& graph = dataset->graph;
  std::vector<double> probs;
  std::vector<RngState> starts;
  {
    const RngJump& jump = RngJump::ForSteps(kWorlds);
    Rng rng(1);
    ScopedRngState local(rng);
    std::vector<uint64_t> geometric_words(kWordsPerEdge);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const double p = graph.prob(e);
      if (BitVector::FillDrawsEveryBit(p)) {
        probs.push_back(p);
        starts.push_back(local.state());
        jump.Apply(local.state());
      } else {
        BitVector::FillBernoulliWords(geometric_words.data(), kWorlds, p,
                                      local.state());
      }
    }
  }
  const size_t num_fills = probs.size();
  std::vector<uint64_t> words(num_fills * kWordsPerEdge);
  for (auto _ : state) {
    size_t i = 0;
    if (four_lanes) {
      for (; i + 4 <= num_fills; i += 4) {
        uint64_t* lane_words[4];
        RngState lane_states[4];
        for (size_t lane = 0; lane < 4; ++lane) {
          lane_words[lane] = &words[(i + lane) * kWordsPerEdge];
          lane_states[lane] = starts[i + lane];
        }
        BitVector::FillCoinWords4(lane_words, kWorlds, &probs[i],
                                  lane_states);
      }
    }
    for (; i < num_fills; ++i) {
      RngState start = starts[i];
      BitVector::FillBernoulliWords(&words[i * kWordsPerEdge], kWorlds,
                                    probs[i], start);
    }
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.counters["time_per_coin"] = benchmark::Counter(
      static_cast<double>(num_fills) * kWorlds,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_CoinFill, Scalar, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoinFill, FourLane, true)->Unit(benchmark::kMillisecond);

// The serial pass of that resample alone, on one thread: LastFM-small's
// geometric edges (0 < p < 0.25) filled in place from the stream of seed 1,
// each coin edge's L draws skipped with one RngJump::Apply, as Resample
// does before its coin pass. `time_per_variate` divides the time by the
// geometric variates drawn: one per set bit plus the one that passes L, per
// edge.
void BM_SerialPass(benchmark::State& state) {
  constexpr uint32_t kWorlds = 1500;
  constexpr size_t kWordsPerEdge = (kWorlds + 63) / 64;
  static const Dataset* dataset = new Dataset(
      MakeDataset(DatasetId::kLastFm, Scale::kSmall, 7).MoveValue());
  const UncertainGraph& graph = dataset->graph;
  const RngJump& jump = RngJump::ForSteps(kWorlds);
  std::vector<uint64_t> words(graph.num_edges() * kWordsPerEdge);
  auto serial_pass = [&] {
    Rng rng(1);
    ScopedRngState local(rng);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const double p = graph.prob(e);
      if (BitVector::FillDrawsEveryBit(p)) {
        jump.Apply(local.state());
      } else {
        BitVector::FillBernoulliWords(&words[e * kWordsPerEdge], kWorlds, p,
                                      local.state());
      }
    }
  };
  serial_pass();
  size_t variates = 0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const double p = graph.prob(e);
    if (!(p > 0.0 && p < 0.25)) continue;
    variates += 1;
    for (size_t w = 0; w < kWordsPerEdge; ++w) {
      variates += Popcount(words[e * kWordsPerEdge + w]);
    }
  }
  for (auto _ : state) {
    serial_pass();
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.counters["time_per_variate"] = benchmark::Counter(
      static_cast<double>(variates),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SerialPass)->Unit(benchmark::kMillisecond);

// BFS Sharing's shared BFS alone (the fixpoint of Algorithms 2-3, no
// resample): one generation at L = 1500 of the dataset (seed 7), narrowed
// to the engine's width for K = 1000 (16 words per edge), one thread.
// `St` answers 24 h = 2 s-t pairs per iteration (counter
// `time_per_query`), `Sweep` sweeps from the first 8 of their sources
// (`time_per_source`).
void BM_SharedBfs(benchmark::State& state, DatasetId id, Scale scale,
                  bool sweep) {
  constexpr uint32_t kSamples = 1000;
  const Dataset dataset = MakeDataset(id, scale, 7).MoveValue();
  QueryGenOptions query_options;
  query_options.num_pairs = 24;
  query_options.hop_distance = 2;
  query_options.seed = 11;
  const std::vector<ReliabilityQuery> pairs =
      GenerateQueries(dataset.graph, query_options).MoveValue();
  BfsSharingOptions options;
  options.index_samples = 1500;
  auto estimator =
      BfsSharingEstimator::CreateReplica(dataset.graph, options, kSamples)
          .MoveValue();
  estimator->PrepareForNextQuery(1).CheckOK();
  EstimateOptions opts;
  opts.num_samples = kSamples;
  const size_t num_sources = std::min<size_t>(8, pairs.size());
  for (auto _ : state) {
    if (sweep) {
      for (size_t i = 0; i < num_sources; ++i) {
        benchmark::DoNotOptimize(
            estimator->ReliabilityFromSource(pairs[i].source, kSamples));
      }
    } else {
      for (const ReliabilityQuery& q : pairs) {
        benchmark::DoNotOptimize(estimator->Estimate(q, opts));
      }
    }
  }
  state.counters[sweep ? "time_per_source" : "time_per_query"] =
      benchmark::Counter(static_cast<double>(sweep ? num_sources
                                                   : pairs.size()),
                         benchmark::Counter::kIsIterationInvariantRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_SharedBfs, LastFmSt, DatasetId::kLastFm, Scale::kSmall,
                  false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SharedBfs, LastFmSweep, DatasetId::kLastFm,
                  Scale::kSmall, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SharedBfs, NetHeptSt, DatasetId::kNetHept,
                  Scale::kMedium, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SharedBfs, NetHeptSweep, DatasetId::kNetHept,
                  Scale::kMedium, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SharedBfs, BioMineSt, DatasetId::kBioMine,
                  Scale::kMedium, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SharedBfs, BioMineSweep, DatasetId::kBioMine,
                  Scale::kMedium, true)
    ->Unit(benchmark::kMillisecond);

void BM_SampleWorld(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(fixture.dataset.graph, rng));
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * fixture.dataset.graph.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleWorld);

void BM_HopDistances(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HopDistances(fixture.dataset.graph, s));
    s = (s + 1) % fixture.dataset.graph.num_nodes();
  }
}
BENCHMARK(BM_HopDistances);

}  // namespace
}  // namespace relcomp

BENCHMARK_MAIN();
