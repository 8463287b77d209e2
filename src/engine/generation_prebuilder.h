#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "reliability/estimator.h"

namespace relcomp {

class CoinPass;

/// \brief Background builder of PrepareForNextQuery artifacts.
///
/// BFS Sharing resamples L possible worlds per edge between successive
/// queries — O(L m) work that would otherwise run inline on the serving
/// path. This builder moves it onto dedicated threads: the engine Request()s
/// the prepare seeds of enqueued queries as they are submitted, the builders
/// construct each generation via Estimator::BuildPreparedGeneration
/// (thread-safe by that contract) while workers run the *previous* queries'
/// BFS, and the worker that eventually needs a seed Take()s the finished
/// generation and installs it in O(1) with AdoptPreparedGeneration. The pool
/// stores the same `shared_ptr<const PreparedGeneration>` handle replicas
/// pass to each other; Take() hands over the pool's only reference, so once
/// the adopting caller drops it the replica owns the generation outright and
/// refills it in place on its next inline prepare.
///
/// With `num_builders` >= 2 the L·m resampling for several *distinct*
/// prepare seeds fans out concurrently — each seed is built exactly once by
/// exactly one builder. The queue is FIFO over request order, and requests
/// arrive in dispatch order, so builders always work on the seeds whose
/// queries are closest to dispatch.
///
/// Take() semantics make duplication impossible and waiting minimal:
///   - ready      -> returned immediately (the overlap win);
///   - building   -> helps fill the build's coin pass (CoinPass::Help), then
///                   blocks until the build finishes (finishing a half-done
///                   build is never slower than redoing it);
///   - queued     -> the request is cancelled and nullptr returned (the
///                   caller builds inline; the builder never duplicates it);
///   - unknown    -> nullptr (caller builds inline).
///
/// Determinism: a prebuilt generation is bit-identical to the inline
/// PrepareForNextQuery(seed) artifact (Estimator contract), so serving with
/// the prebuilder on or off — at any thread or builder count — returns
/// identical bits.
class GenerationPrebuilder {
 public:
  /// `prototype` outlives this object and is only touched through the
  /// thread-safe BuildPreparedGeneration. `max_pending` bounds queued +
  /// ready-but-untaken generations by *count*; each ready generation holds
  /// PreparedGeneration::MemoryBytes() of index-sized memory, so the pool
  /// can pin up to max_pending spare indexes. `num_builders` (clamped to
  /// >= 1) is the number of builder threads. `registry` (not owned, must
  /// outlive this object) receives the prebuilder_* instruments.
  GenerationPrebuilder(const Estimator& prototype,
                       obs::MetricsRegistry& registry, size_t max_pending,
                       size_t num_builders = 1);
  ~GenerationPrebuilder();

  GenerationPrebuilder(const GenerationPrebuilder&) = delete;
  GenerationPrebuilder& operator=(const GenerationPrebuilder&) = delete;

  /// Enqueues `seed` for background construction. Deduplicates against
  /// queued, building, and ready seeds. At the pending bound, the oldest
  /// ready-but-unclaimed generation is evicted to make room (stranded work
  /// must never wedge the builder shut); if the bound is all queued /
  /// in-flight work, the request is dropped (returns false).
  bool Request(uint64_t seed);

  /// Claims the generation for `seed` (see class comment for the per-state
  /// behaviour). A failed background build surfaces here as nullptr — the
  /// caller's inline PrepareForNextQuery will re-raise the error. Fills
  /// tossed while helping count in prebuilder_helped_fills_total.
  std::shared_ptr<const PreparedGeneration> Take(uint64_t seed);

  /// Bytes resident in the ready pool right now (counted toward the
  /// engine's IndexMemoryReport::prebuilt_bytes).
  size_t ReadyBytes() const;

  size_t num_builders() const { return builders_.size(); }

  /// Stops the builder threads; queued seeds are abandoned, Take()
  /// afterwards only serves already-ready generations. Idempotent (the
  /// destructor calls it).
  void Shutdown();

 private:
  struct ReadyGeneration {
    std::shared_ptr<const PreparedGeneration> generation;
    size_t bytes = 0;
  };

  void BuilderLoop();

  const Estimator& prototype_;
  const size_t max_pending_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable build_finished_;
  std::deque<uint64_t> queue_;
  std::unordered_set<uint64_t> queued_;
  std::unordered_map<uint64_t, ReadyGeneration> ready_;
  /// Completion order of ready_ entries, oldest first, for eviction.
  /// Mirrors ready_'s key set exactly (Take() and eviction both erase).
  std::deque<uint64_t> ready_order_;
  /// Seeds currently being built, one per active builder thread at most,
  /// each with the coin pass a Take() of it helps fill.
  std::unordered_map<uint64_t, std::shared_ptr<CoinPass>> building_;
  bool shutdown_ = false;

  obs::Counter* requested_;
  obs::Counter* built_;
  obs::Counter* taken_;
  obs::Counter* dropped_;
  obs::Counter* evicted_;
  obs::Counter* helped_fills_;
  obs::Gauge* ready_bytes_gauge_;
  size_t ready_bytes_ = 0;

  std::vector<std::thread> builders_;  ///< last member: starts after state
};

}  // namespace relcomp
