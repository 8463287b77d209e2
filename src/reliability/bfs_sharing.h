#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "reliability/estimator.h"

namespace relcomp {

/// \brief Options for the BFS Sharing index [45].
struct BfsSharingOptions {
  /// L: number of pre-sampled possible worlds per edge. The paper uses
  /// L = 1500 as a "safe bound" since K at convergence is not known apriori
  /// (Section 3.7). L fixes the sample stream: each edge's draws, and so
  /// every world of a generation. Queries may use any K up to the worlds a
  /// generation stores: all L, or the first 64 * ceil(K / 64) of them when
  /// it is narrowed to a budget K (BfsSharingIndex::Build).
  uint32_t index_samples = 1500;
};

/// \brief One generation of the BFS Sharing index: the L-bit edge vectors of
/// Figure 3 (bit i = "edge exists in pre-sampled world i"), or the first
/// words of each when the generation is narrowed to a query budget.
///
/// A generation is also the PreparedGeneration replicas hand to each other:
/// any number of replicas may read one concurrently through a
/// `shared_ptr<const BfsSharingIndex>` (a sweep flight's stratum thieves
/// adopt their leader's). Resampling (BfsSharingEstimator::
/// PrepareForNextQuery) refills a generation in place only while its
/// replica is the last holder; otherwise it creates a *new* generation and
/// swaps the pointer, and the old one is freed when its last reader drops
/// it.
class BfsSharingIndex : public PreparedGeneration {
 public:
  /// Samples a fresh generation: O(L m) time, O(L m) space. Deterministic in
  /// `seed` (bit-identical worlds for equal seeds and options). The returned
  /// handle is the only mutable reference; share it onward as
  /// `shared_ptr<const>`. `coins`, when given, is the fill's coin pass, which
  /// other threads may help fill (see Resample).
  ///
  /// `num_worlds`, when nonzero and below L, narrows the generation to a
  /// budget of that many worlds: each edge stores W = ceil(num_worlds / 64)
  /// words instead of ceil(L / 64), and they are the first W words of the
  /// whole generation of `seed`, since the stream is still laid out for L
  /// (see Resample). Such a generation holds worlds [0, stored_worlds()).
  static Result<std::shared_ptr<BfsSharingIndex>> Build(
      const UncertainGraph& graph, const BfsSharingOptions& options,
      uint64_t seed, CoinPass* coins = nullptr, uint32_t num_worlds = 0);

  /// Restores a generation persisted by SaveToFile (Figure 13c measures
  /// this): reads the file, then parses it with FromBlock, which copies the
  /// words. The graph is needed only to validate the edge count.
  static Result<std::shared_ptr<BfsSharingIndex>> LoadFromFile(
      const UncertainGraph& graph, const std::string& path);

  /// Serializes this generation as SaveToFile's payload: {L u32, pad u32,
  /// m u64} then the packed words verbatim. A narrowed generation is
  /// refused (FailedPrecondition): the format holds all L worlds per edge.
  Status AppendBlock(std::string* out) const;

  /// Reconstructs a generation from an AppendBlock payload into owned words,
  /// refusing (IOError, or InvalidArgument for another edge count) a
  /// truncated header, L = 0, and a word block of any other size. The
  /// parser behind LoadFromFile.
  static Result<std::shared_ptr<BfsSharingIndex>> FromBlock(
      const UncertainGraph& graph, const void* data, size_t size);

  /// Refills every edge's worlds in place — bit-identical to a fresh
  /// Build(graph, options, seed) with this generation's L and width,
  /// allocating only the coin pass's start states (the serving path's
  /// steady state: every query re-arms). Caller must hold the generation
  /// exclusively: no other replica may read the bit content concurrently
  /// (size-only readers like MemoryBytes are unaffected — refilling never
  /// changes shapes).
  ///
  /// The fill runs in two passes over one RNG stream: a serial pass fills
  /// the geometric edges (0 < p < 0.25) and jumps the stream L draws over
  /// each edge that tosses exactly L coins (BitVector::FillDrawsEveryBit),
  /// and a coin pass tosses the stored_worlds() coins of those from their
  /// recorded start states. The coin pass runs on `coins` when given, so
  /// that threads calling coins->Help() fill part of it; otherwise on a
  /// private pass. The words are the same either way.
  void Resample(const UncertainGraph& graph, uint64_t seed,
                CoinPass* coins = nullptr);

  /// Persists the edge bit-vectors to `path`: a magic, then AppendBlock
  /// (so a narrowed generation is refused).
  Status SaveToFile(const std::string& path) const;

  /// L, the number of worlds per edge that fixes the sample stream.
  uint32_t num_samples() const { return num_samples_; }
  size_t num_edges() const { return num_edges_; }

  /// Worlds [0, stored_worlds()) are stored: min(64 * words_per_edge(), L).
  uint32_t stored_worlds() const {
    return static_cast<uint32_t>(
        std::min<size_t>(64 * words_per_edge_, num_samples_));
  }

  /// The edge vectors live in one dense block of `words_per_edge()` 64-bit
  /// words per edge (ceil(L / 64), or fewer for a narrowed generation),
  /// packed back to back in edge-id order — no per-edge vector headers, one
  /// allocation per generation. edge_words(e) is the start of edge e's
  /// block; its bits [0, stored_worlds()) are worlds, and the block tail (if
  /// stored_worlds() % 64 != 0) is kept zero so popcounts stay exact.
  size_t words_per_edge() const { return words_per_edge_; }
  const uint64_t* edge_words(EdgeId e) const {
    return words_.data() + static_cast<size_t>(e) * words_per_edge_;
  }

  /// Edge bit-vector bytes resident in memory.
  size_t MemoryBytes() const;

  /// Seconds spent sampling (or loading) this generation.
  double build_seconds() const { return build_seconds_; }

  /// Process-wide count of Build()/LoadFromFile()/FromBlock() completions
  /// (in-place Resample()s make no new generation and are not counted). Lets
  /// tests assert that an engine's Create builds no generation.
  static uint64_t BuildCount() {
    return build_count_.load(std::memory_order_relaxed);
  }

 private:
  BfsSharingIndex() = default;

  uint32_t num_samples_ = 0;
  double build_seconds_ = 0.0;
  size_t num_edges_ = 0;
  size_t words_per_edge_ = 0;
  /// num_edges * words_per_edge words, edge blocks back to back.
  std::vector<uint64_t> words_;
  static std::atomic<uint64_t> build_count_;
};

/// \brief Indexing via BFS Sharing (Algorithms 2 + 3; Zhu et al. [45],
/// adapted from top-k reliability search to single s-t queries).
///
/// Offline, K possible worlds are materialized as one bit-vector of L bits
/// per edge (bit i = edge exists in world i). Online, the query computes the
/// least fixpoint I_s = all worlds, I_v = the union over arcs (u, v) of
/// I_u & E_uv (I_v = the worlds where v is reachable from s), 64 worlds per
/// machine word. No early termination is possible: no I_v is final before
/// the fixpoint is. (The paper measures BFS Sharing about 4x slower than
/// plain MC, with the per-query index update counted apart in Table 15;
/// here that resample costs far more than the fixpoint, see
/// src/reliability/README.md, "Shared BFS as a fixpoint".)
///
/// This implementation follows the paper's *corrected* complexity analysis:
/// online time is O(K(m+n)) — it grows with K — not independent of K as
/// claimed in [45].
///
/// Memory split: a generation is immutable while shared and may be read by
/// several replicas at once (see BfsSharingIndex); only the per-query
/// scratch (two words per node, the ring and the touched list) is private
/// to this instance. The serving path is read-only on the generation, so
/// replicas sharing one answer concurrently without synchronization.
class BfsSharingEstimator : public Estimator {
 public:
  /// A bare estimator: builds a private whole-width generation 0 (O(L m)
  /// time, O(n + L m) space), which answers until the first prepare.
  static Result<std::unique_ptr<BfsSharingEstimator>> Create(
      const UncertainGraph& graph, const BfsSharingOptions& options,
      uint64_t index_seed);

  /// An engine replica: holds no generation until its first
  /// PrepareForNextQuery or AdoptPreparedGeneration, since the engine
  /// prepares before every answer; until then every reader of the worlds
  /// refuses with FailedPrecondition. `num_samples`, when nonzero, is the
  /// budget K this replica's queries read: every generation it prepares is
  /// narrowed to K (BfsSharingIndex::Build's `num_worlds`), so it tosses and
  /// stores only the worlds those queries read, and answers as a
  /// whole-width estimator would. L = 0 is refused (InvalidArgument).
  static Result<std::unique_ptr<BfsSharingEstimator>> CreateReplica(
      const UncertainGraph& graph, const BfsSharingOptions& options,
      uint32_t num_samples);

  /// Loads a previously saved generation from `path` (Figure 13c measures
  /// this) and answers from it until the first prepare.
  static Result<std::unique_ptr<BfsSharingEstimator>> LoadFromFile(
      const UncertainGraph& graph, const std::string& path);

  /// Persists the current generation to `path`.
  Status SaveToFile(const std::string& path) const;

  std::string_view name() const override { return "BFSSharing"; }
  const UncertainGraph& graph() const override { return graph_; }

  /// Edge bit-vector bytes resident in memory (the current generation; 0
  /// before the first prepare or adoption).
  size_t IndexMemoryBytes() const override;
  /// The whole index is held via a shareable immutable generation.
  size_t SharedIndexBytes() const override { return IndexMemoryBytes(); }
  const void* SharedIndexIdentity() const override {
    return shared_index().get();
  }

  /// Re-samples all edge bit-vectors. Required between successive queries to
  /// keep their answers independent (Table 15 measures this per-query cost).
  /// When this replica exclusively owns its generation, the worlds are
  /// refilled in place (zero allocation — the serving-path steady state);
  /// otherwise a fresh generation, as wide as this replica's budget (see
  /// CreateReplica), is built and atomically swapped in, leaving generations still
  /// referenced by other replicas untouched. Either way the coin pass runs
  /// on `coins` when given (see BfsSharingIndex::Resample), and the words
  /// are the same.
  Status PrepareForNextQuery(uint64_t seed,
                             CoinPass* coins = nullptr) override;

  EstimatorCapabilities capabilities() const override {
    return {.sweep = true, .prepared_generations = true};
  }

  /// Prepared-generation handoff: the handle is the BfsSharingIndex itself.
  /// CurrentPreparedGeneration hands out the generation this replica reads,
  /// and AdoptPreparedGeneration makes it this replica's own; it refuses a
  /// generation of another L or width. The replica that ends up its last
  /// holder refills it in place on its next inline prepare; while any other
  /// handle is alive, nobody does.
  Result<std::shared_ptr<const PreparedGeneration>> CurrentPreparedGeneration()
      const override;
  Status AdoptPreparedGeneration(
      std::shared_ptr<const PreparedGeneration> generation) override;

  /// The generation this replica currently reads (atomic snapshot; null
  /// before the first prepare or adoption).
  std::shared_ptr<const BfsSharingIndex> shared_index() const {
    return index_.load(std::memory_order_acquire);
  }

  /// Seconds spent building (or loading) the current generation; 0 with
  /// none.
  double index_build_seconds() const;

  /// One shared BFS, all targets at once: the reliability of every node from
  /// `source` over the first `num_samples` stored worlds (0 for nodes the
  /// BFS never reaches). This is the primitive behind the original top-k
  /// reliability search of [45] (see top_k.h). `memory`, when given,
  /// receives the sweep's working-set accounting (the fixpoint's scratch and
  /// the result vector).
  Result<std::vector<double>> ReliabilityFromSource(
      NodeId source, uint32_t num_samples, MemoryTracker* memory = nullptr);

  /// Per-node reachable-world counts over the world slice [world_offset,
  /// world_offset + world_count) of the current generation's stored worlds:
  /// the shared BFS run against a bit-range of the edge vectors (no copy).
  /// Because each indexed world is independent, counts over disjoint slices
  /// sum to exactly the whole-range counts — which is why a stratified BFS
  /// Sharing sweep is bit-identical to the serial sweep for *every* stratum
  /// count, provided all strata read the same generation (same prepare
  /// seed).
  Result<std::vector<uint32_t>> SourceHitCountsInWorldRange(
      NodeId source, uint32_t world_offset, uint32_t world_count,
      MemoryTracker* memory = nullptr);

  /// Engine dispatch surface for top-k / reliable-set workloads: the sweep
  /// above over the current index generation. Like DoEstimate, the per-call
  /// seed is unused — re-arm via PrepareForNextQuery to pick the worlds
  /// (the engine does this with a content-derived seed before every query).
  /// options.num_strata is ignored: slices sum exactly, so the sweep is
  /// stratification-invariant (see SourceHitCountsInWorldRange).
  Result<std::vector<double>> EstimateFromSource(
      NodeId source, const EstimateOptions& options) override {
    // Cancellation point: BFS Sharing's sweep is one bit-parallel BFS over
    // the whole world range — short next to an MC sweep — so the poll sits
    // at the call boundary (the engine's stratum scheduler polls between
    // slices on top of this).
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return options.cancel->ToStatus();
    }
    obs::ScopedSpan bfs_span(options.trace, obs::SpanKind::kBfs,
                             options.trace_parent);
    return ReliabilityFromSource(source, options.num_samples, options.memory);
  }

  /// One stratum = one world slice of the budget's [0, K) range.
  Result<std::vector<uint32_t>> EstimateSweepStratumHits(
      NodeId source, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options) override;

 protected:
  Result<double> DoEstimate(const ReliabilityQuery& query,
                            const EstimateOptions& options,
                            MemoryTracker* memory) override;

 private:
  BfsSharingEstimator(const UncertainGraph& graph,
                      const BfsSharingOptions& options, uint32_t num_worlds);

  /// A bare estimator that answers from `generation`, whole width, until
  /// its first prepare (Create, LoadFromFile).
  static std::unique_ptr<BfsSharingEstimator> Bare(
      const UncertainGraph& graph, std::shared_ptr<BfsSharingIndex> generation);

  /// Makes `generation` this replica's own and the one its readers read.
  void Install(std::shared_ptr<BfsSharingIndex> generation);

  /// The current generation, or FailedPrecondition before the first
  /// prepare or adoption.
  Result<std::shared_ptr<const BfsSharingIndex>> Generation() const;

  /// Core of Algorithms 2+3: the least fixpoint I_s = all worlds, I_v = the
  /// union over arcs (u, v) of I_u & E_uv, over the world slice
  /// [world_offset, world_offset + k) of the edge vectors, one 64-world word
  /// at a time (see src/reliability/README.md, "Shared BFS as a fixpoint").
  /// A slice past index.stored_worlds() is refused (InvalidArgument).
  /// After each word it calls collect(v, worlds) once for every node v that
  /// some world of the word reaches, s included, with the number of those
  /// worlds. Reads only `index` and this replica's private scratch.
  template <typename Collect>
  Status RunSharedBfs(const BfsSharingIndex& index, NodeId source,
                      uint32_t world_offset, uint32_t k, Collect& collect);

  /// Bytes of the fixpoint's scratch: the online working set every query
  /// charges.
  size_t ScratchBytes() const;

  const UncertainGraph& graph_;
  BfsSharingOptions options_;
  /// The budget K the generations this replica prepares are narrowed to; 0
  /// keeps them whole (see CreateReplica).
  const uint32_t num_worlds_;
  /// Current generation (null before the first). Atomic so
  /// QueryEngine::IndexMemory() readers may observe the pointer while this
  /// replica's worker swaps generations; readers never touch bit content
  /// (sizes only).
  std::atomic<std::shared_ptr<const BfsSharingIndex>> index_;
  /// Mutable handle to the current generation, the same object as index_'s;
  /// nullptr exactly when this replica has no generation. In-place
  /// resampling needs use_count == 2: this handle plus the copy in index_.
  std::shared_ptr<BfsSharingIndex> owned_;

  /// One 64-world word of a node's fixpoint state: the worlds that reach it
  /// and those of them not yet pushed along its out-arcs. Both are zero
  /// between words.
  struct NodeWorlds {
    uint64_t reached = 0;
    uint64_t pending = 0;
  };
  /// Per-query scratch, one entry per node: the per-node words, the FIFO
  /// ring of nodes with pending worlds (each at most once, so n slots) and
  /// the nodes reached in the current word.
  std::vector<NodeWorlds> worlds_;
  std::vector<NodeId> ring_;
  std::vector<NodeId> touched_;
};

}  // namespace relcomp
