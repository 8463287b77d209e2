#include "reliability/bfs_sharing.h"

#include <cstring>

#include "common/bitvector.h"
#include "common/coin_pass.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/wire.h"

namespace relcomp {

namespace {
/// The file is this magic followed by the AppendBlock payload.
constexpr char kIndexMagic[8] = {'R', 'E', 'L', 'B', 'F', 'S', 'I', '2'};

/// ceil(L / 64) in size_t: L + 63 would wrap in uint32 for L near 2^32.
size_t WordsPerEdge(uint32_t num_samples) {
  return (static_cast<size_t>(num_samples) + 63) / 64;
}

/// Words per edge of a generation of L = `num_samples` worlds narrowed to a
/// budget of `num_worlds` (0: not narrowed).
size_t WordsPerEdge(uint32_t num_samples, uint32_t num_worlds) {
  return WordsPerEdge(num_worlds == 0 ? num_samples
                                      : std::min(num_worlds, num_samples));
}
}  // namespace

std::atomic<uint64_t> BfsSharingIndex::build_count_{0};

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::Build(
    const UncertainGraph& graph, const BfsSharingOptions& options,
    uint64_t seed, CoinPass* coins, uint32_t num_worlds) {
  if (options.index_samples == 0) {
    return Status::InvalidArgument("BFS Sharing: index_samples must be positive");
  }
  std::shared_ptr<BfsSharingIndex> index(new BfsSharingIndex());
  index->num_samples_ = options.index_samples;
  index->num_edges_ = graph.num_edges();
  index->words_per_edge_ = WordsPerEdge(options.index_samples, num_worlds);
  index->words_.assign(index->num_edges_ * index->words_per_edge_, 0);
  index->Resample(graph, seed, coins);
  build_count_.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void BfsSharingIndex::Resample(const UncertainGraph& graph, uint64_t seed,
                               CoinPass* coins) {
  Timer timer;
  // One RNG stream over the edges in id order, filled in two passes. The
  // serial pass fills the edges whose draw count depends on the draws (the
  // geometric ones) and, for each edge that draws exactly L coins, records
  // the state its coins start from and jumps the stream L draws ahead. The
  // coin pass then tosses those edges' coins from their recorded states, on
  // this thread and on any helper's. Either way every edge gets exactly the
  // draws FillBernoulliWords' reference loop gives it, so generations are a
  // fixed function of (graph, L, seed) in both graph storage layouts, which
  // preserve edge ids and bitwise probabilities. A narrowed generation
  // stores the first W words of each edge: the stream is the same, so the
  // serial pass still jumps L draws and runs every geometric variate to L,
  // and only the coin pass, which tosses the stored coins alone, does less.
  CoinPass own_coins;
  CoinPass& pass = coins != nullptr ? *coins : own_coins;
  size_t num_coin_edges = 0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    num_coin_edges += BitVector::FillDrawsEveryBit(graph.prob(e));
  }
  pass.Begin(num_coin_edges, stored_worlds());
  const RngJump& jump = RngJump::ForSteps(num_samples_);
  Rng rng(seed);
  ScopedRngState local(rng);
  RngState& state = local.state();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    uint64_t* words = words_.data() + e * words_per_edge_;
    const double p = graph.prob(e);
    if (BitVector::FillDrawsEveryBit(p)) {
      pass.Defer(words, p, state);
      jump.Apply(state);
    } else {
      BitVector::FillBernoulliWords(words, num_samples_, words_per_edge_, p,
                                    state);
    }
  }
  pass.Finish();
  build_seconds_ = timer.ElapsedSeconds();
}

size_t BfsSharingIndex::MemoryBytes() const {
  return words_.size() * sizeof(uint64_t);
}

Status BfsSharingIndex::AppendBlock(std::string* out) const {
  if (words_per_edge_ != WordsPerEdge(num_samples_)) {
    return Status::FailedPrecondition(
        StrFormat("BFS Sharing: a generation narrowed to %zu of %zu words "
                  "per edge cannot be saved",
                  words_per_edge_, WordsPerEdge(num_samples_)));
  }
  WireWriter writer(out);
  writer.PutU32(num_samples_);
  writer.PutU32(0);  // pad
  writer.PutU64(num_edges_);
  writer.PutBytes(words_.data(), words_.size() * sizeof(uint64_t));
  return Status::OK();
}

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::FromBlock(
    const UncertainGraph& graph, const void* data, size_t size) {
  WireReader reader(data, size);
  uint32_t l = 0, pad = 0;
  uint64_t m = 0;
  if (!reader.ReadU32(&l) || !reader.ReadU32(&pad) || !reader.ReadU64(&m)) {
    return Status::IOError("BFS Sharing block: truncated header");
  }
  if (l == 0) {
    return Status::IOError("BFS Sharing block: zero samples");
  }
  if (m != graph.num_edges()) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing block: index has %llu edges, graph has %zu",
                  static_cast<unsigned long long>(m), graph.num_edges()));
  }
  const size_t words_per_edge = WordsPerEdge(l);
  const size_t num_words = static_cast<size_t>(m) * words_per_edge;
  if (reader.remaining() != num_words * sizeof(uint64_t)) {
    return Status::IOError(
        StrFormat("BFS Sharing block: expected %zu word bytes, have %zu",
                  num_words * sizeof(uint64_t), reader.remaining()));
  }
  Timer timer;
  std::shared_ptr<BfsSharingIndex> index(new BfsSharingIndex());
  index->num_samples_ = l;
  index->num_edges_ = m;
  index->words_per_edge_ = words_per_edge;
  index->words_.resize(num_words);
  std::memcpy(index->words_.data(), reader.cursor(),
              num_words * sizeof(uint64_t));
  index->build_seconds_ = timer.ElapsedSeconds();
  build_count_.fetch_add(1, std::memory_order_relaxed);
  return index;
}

Status BfsSharingIndex::SaveToFile(const std::string& path) const {
  std::string bytes(kIndexMagic, sizeof(kIndexMagic));
  RELCOMP_RETURN_NOT_OK(AppendBlock(&bytes));
  return WriteFileBytes(path, bytes);
}

Result<std::shared_ptr<BfsSharingIndex>> BfsSharingIndex::LoadFromFile(
    const UncertainGraph& graph, const std::string& path) {
  std::string bytes;
  RELCOMP_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (bytes.size() < sizeof(kIndexMagic) ||
      std::memcmp(bytes.data(), kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return Status::IOError("not a BFS Sharing index: " + path);
  }
  return FromBlock(graph, bytes.data() + sizeof(kIndexMagic),
                   bytes.size() - sizeof(kIndexMagic));
}

BfsSharingEstimator::BfsSharingEstimator(const UncertainGraph& graph,
                                         const BfsSharingOptions& options,
                                         uint32_t num_worlds)
    : graph_(graph),
      options_(options),
      num_worlds_(num_worlds),
      worlds_(graph.num_nodes()),
      ring_(graph.num_nodes()),
      touched_(graph.num_nodes()) {}

void BfsSharingEstimator::Install(std::shared_ptr<BfsSharingIndex> generation) {
  index_.store(std::shared_ptr<const BfsSharingIndex>(generation),
               std::memory_order_release);
  owned_ = std::move(generation);
}

Result<std::shared_ptr<const BfsSharingIndex>>
BfsSharingEstimator::Generation() const {
  std::shared_ptr<const BfsSharingIndex> index = shared_index();
  if (index == nullptr) {
    return Status::FailedPrecondition(
        "BFS Sharing: no generation before the first prepare or adoption");
  }
  return index;
}

std::unique_ptr<BfsSharingEstimator> BfsSharingEstimator::Bare(
    const UncertainGraph& graph, std::shared_ptr<BfsSharingIndex> generation) {
  BfsSharingOptions options;
  options.index_samples = generation->num_samples();
  std::unique_ptr<BfsSharingEstimator> estimator(
      new BfsSharingEstimator(graph, options, /*num_worlds=*/0));
  estimator->Install(std::move(generation));
  return estimator;
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::Create(
    const UncertainGraph& graph, const BfsSharingOptions& options,
    uint64_t index_seed) {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> index,
                           BfsSharingIndex::Build(graph, options, index_seed));
  return Bare(graph, std::move(index));
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::CreateReplica(
    const UncertainGraph& graph, const BfsSharingOptions& options,
    uint32_t num_samples) {
  if (options.index_samples == 0) {
    return Status::InvalidArgument("BFS Sharing: index_samples must be positive");
  }
  return std::unique_ptr<BfsSharingEstimator>(
      new BfsSharingEstimator(graph, options, num_samples));
}

Status BfsSharingEstimator::PrepareForNextQuery(uint64_t seed,
                                                CoinPass* coins) {
  // Exclusive ownership (owned_ + the copy inside index_): refill the
  // worlds in place — bit-identical to a fresh build, no new words. This
  // is the steady state on the serving path, where every query re-arms. Any
  // other handle — a sibling that adopted this generation, a sweep flight
  // or a transient stats reader — pushes the count above 2 and falls through
  // to one fresh build; either path yields the same worlds.
  if (owned_ != nullptr && owned_.use_count() == 2) {
    // use_count() is a relaxed load. The fence orders this replica's writes
    // after the reads of every holder whose release brought the count to 2
    // (e.g. the sweep leader whose generation a stratum thief adopted).
    // Helpers of `coins` write these words too, on other threads, and their
    // writes are ordered the same way: this fence, then each Publish of a
    // block (release), the helper's acquire of that publish before it fills
    // the block, and its count into filled_ (release), which Finish acquires
    // before the refill returns.
    std::atomic_thread_fence(std::memory_order_acquire);
    owned_->Resample(graph_, seed, coins);
    return Status::OK();
  }
  // Generation swap (or this replica's first generation): replicas sharing
  // the old generation keep reading it untouched; this replica alone moves
  // to the fresh worlds. The old generation is freed when its last reader
  // lets go.
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> fresh,
                           BfsSharingIndex::Build(graph_, options_, seed,
                                                  coins, num_worlds_));
  Install(std::move(fresh));
  return Status::OK();
}

Result<std::shared_ptr<const PreparedGeneration>>
BfsSharingEstimator::CurrentPreparedGeneration() const {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  return std::shared_ptr<const PreparedGeneration>(std::move(index));
}

Status BfsSharingEstimator::AdoptPreparedGeneration(
    std::shared_ptr<const PreparedGeneration> generation) {
  std::shared_ptr<const BfsSharingIndex> index =
      std::dynamic_pointer_cast<const BfsSharingIndex>(std::move(generation));
  if (index == nullptr) {
    return Status::InvalidArgument(
        "BFS Sharing: not a prepared BFS Sharing generation");
  }
  if (index->num_edges() != graph_.num_edges() ||
      index->num_samples() != options_.index_samples ||
      index->words_per_edge() !=
          WordsPerEdge(options_.index_samples, num_worlds_)) {
    return Status::InvalidArgument(
        "BFS Sharing: prepared generation shape mismatch");
  }
  // Same publication as PrepareForNextQuery's swap path: readers of index_
  // move to the adopted worlds. Every generation is constructed mutable
  // (Build, FromBlock), so the writable handle is sound; PrepareForNextQuery's
  // use_count guard decides whether it may be written, so adopting never
  // makes a generation writable under a reader.
  Install(std::const_pointer_cast<BfsSharingIndex>(std::move(index)));
  return Status::OK();
}

size_t BfsSharingEstimator::IndexMemoryBytes() const {
  const std::shared_ptr<const BfsSharingIndex> index = shared_index();
  return index == nullptr ? 0 : index->MemoryBytes();
}

double BfsSharingEstimator::index_build_seconds() const {
  const std::shared_ptr<const BfsSharingIndex> index = shared_index();
  return index == nullptr ? 0.0 : index->build_seconds();
}

size_t BfsSharingEstimator::ScratchBytes() const {
  return worlds_.size() * sizeof(NodeWorlds) +
         (ring_.size() + touched_.size()) * sizeof(NodeId);
}

Result<double> BfsSharingEstimator::DoEstimate(const ReliabilityQuery& query,
                                               const EstimateOptions& options,
                                               MemoryTracker* memory) {
  RELCOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  const NodeId s = query.source;
  const NodeId t = query.target;
  const uint32_t k = options.num_samples;
  if (s == t) return 1.0;

  ScopedAllocation working(memory, ScratchBytes());
  uint32_t hits = 0;
  auto collect = [&](NodeId v, uint32_t worlds) {
    if (v == t) hits += worlds;
  };
  RELCOMP_RETURN_NOT_OK(RunSharedBfs(*index, s, /*world_offset=*/0, k,
                                     collect));
  return static_cast<double>(hits) / static_cast<double>(k);
}

Result<std::vector<double>> BfsSharingEstimator::ReliabilityFromSource(
    NodeId source, uint32_t num_samples, MemoryTracker* memory) {
  RELCOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  if (!graph_.HasNode(source)) {
    return Status::InvalidArgument("BFS Sharing: source out of range");
  }
  ScopedAllocation working(
      memory, ScratchBytes() + graph_.num_nodes() * sizeof(double));
  // Sums of popcounts stay integers far below 2^53, so each entry is the
  // exact world count until the one division below. Only the entries some
  // world reached are divided: every other one stays +0.0, which is 0 / K.
  std::vector<double> reliability(graph_.num_nodes(), 0.0);
  std::vector<NodeId> reached;
  auto collect = [&](NodeId v, uint32_t worlds) {
    if (reliability[v] == 0.0) reached.push_back(v);
    reliability[v] += worlds;
  };
  RELCOMP_RETURN_NOT_OK(RunSharedBfs(*index, source, /*world_offset=*/0,
                                     num_samples, collect));
  ScopedAllocation reached_list(memory, reached.capacity() * sizeof(NodeId));
  for (const NodeId v : reached) {
    reliability[v] /= static_cast<double>(num_samples);
  }
  return reliability;
}

Result<std::vector<uint32_t>> BfsSharingEstimator::SourceHitCountsInWorldRange(
    NodeId source, uint32_t world_offset, uint32_t world_count,
    MemoryTracker* memory) {
  RELCOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  if (!graph_.HasNode(source)) {
    return Status::InvalidArgument("BFS Sharing: source out of range");
  }
  ScopedAllocation working(
      memory, ScratchBytes() + graph_.num_nodes() * sizeof(uint32_t));
  std::vector<uint32_t> hits(graph_.num_nodes(), 0);
  if (world_count == 0) return hits;
  auto collect = [&](NodeId v, uint32_t worlds) { hits[v] += worlds; };
  RELCOMP_RETURN_NOT_OK(
      RunSharedBfs(*index, source, world_offset, world_count, collect));
  return hits;
}

Result<std::vector<uint32_t>> BfsSharingEstimator::EstimateSweepStratumHits(
    NodeId source, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  if (num_strata == 0 || stratum >= num_strata) {
    return Status::InvalidArgument("sweep stratum: index out of range");
  }
  RELCOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  if (options.num_samples == 0 ||
      options.num_samples > index->stored_worlds()) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing: K=%u exceeds the %u worlds stored (%zu words "
                  "per edge, L=%u)",
                  options.num_samples, index->stored_worlds(),
                  index->words_per_edge(), index->num_samples()));
  }
  // Cancellation point: one poll per world slice (the stratum boundary the
  // engine's scheduler also polls at).
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return options.cancel->ToStatus();
  }
  // Stratum j owns the world slice [offset, offset + count) of the budget's
  // [0, K) range; slice counts sum exactly to the whole-range counts.
  obs::ScopedSpan bfs_span(options.trace, obs::SpanKind::kBfs,
                           options.trace_parent, stratum);
  return SourceHitCountsInWorldRange(
      source, StratumSampleOffset(options.num_samples, num_strata, stratum),
      StratumSampleCount(options.num_samples, num_strata, stratum),
      options.memory);
}

template <typename Collect>
Status BfsSharingEstimator::RunSharedBfs(const BfsSharingIndex& index, NodeId s,
                                         uint32_t world_offset, uint32_t k,
                                         Collect& collect) {
  if (k == 0 || world_offset > index.stored_worlds() ||
      k > index.stored_worlds() - world_offset) {
    return Status::InvalidArgument(
        StrFormat("BFS Sharing: world range [%u, %u) exceeds the %u worlds "
                  "stored (%zu words per edge, L=%u)",
                  world_offset, world_offset + k, index.stored_worlds(),
                  index.words_per_edge(), index.num_samples()));
  }
  const size_t words_per_edge = index.words_per_edge();
  const uint32_t shift = world_offset % 64;
  const size_t n = ring_.size();
  NodeWorlds* const worlds = worlds_.data();
  NodeId* const ring = ring_.data();
  NodeId* const touched = touched_.data();
  const size_t num_words = (static_cast<size_t>(k) + 63) / 64;
  for (size_t b = 0; b < num_words; ++b) {
    // Worlds [world_offset + 64 b, + 64) of every edge: one word of its
    // block, or two stitched when the slice starts inside a word. Bits past
    // the slice's end never survive the AND with the source's `mask`.
    const size_t word = world_offset / 64 + b;
    const size_t left = k - 64 * b;
    const uint64_t mask = left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
    worlds[s] = {mask, mask};
    touched[0] = s;
    size_t num_touched = 1;
    ring[0] = s;
    size_t head = 0;
    size_t queued = 1;
    // Semi-naive evaluation: a pop of u pushes only the worlds u gained
    // since its last pop, and w is queued iff it holds pending worlds.
    while (queued > 0) {
      const NodeId u = ring[head];
      head = head + 1 == n ? 0 : head + 1;
      --queued;
      const uint64_t push = worlds[u].pending;
      worlds[u].pending = 0;
      for (const AdjEntry& a : graph_.OutEdges(u)) {
        const uint64_t* edge = index.edge_words(a.edge);
        const uint64_t exists =
            shift == 0 ? edge[word]
                       : SliceWord64(edge, words_per_edge, word, shift);
        NodeWorlds& w = worlds[a.neighbor];
        const uint64_t gain = push & exists & ~w.reached;
        if (gain == 0) continue;
        if (w.reached == 0) touched[num_touched++] = a.neighbor;
        if (w.pending == 0) {
          const size_t tail = head + queued;
          ring[tail < n ? tail : tail - n] = a.neighbor;
          ++queued;
        }
        w.reached |= gain;
        w.pending |= gain;
      }
    }
    for (size_t i = 0; i < num_touched; ++i) {
      const NodeId v = touched[i];
      collect(v, Popcount(worlds[v].reached));
      worlds[v].reached = 0;
    }
  }
  return Status::OK();
}

Status BfsSharingEstimator::SaveToFile(const std::string& path) const {
  RELCOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const BfsSharingIndex> index,
                           Generation());
  return index->SaveToFile(path);
}

Result<std::unique_ptr<BfsSharingEstimator>> BfsSharingEstimator::LoadFromFile(
    const UncertainGraph& graph, const std::string& path) {
  RELCOMP_ASSIGN_OR_RETURN(std::shared_ptr<BfsSharingIndex> index,
                           BfsSharingIndex::LoadFromFile(graph, path));
  return Bare(graph, std::move(index));
}

}  // namespace relcomp
