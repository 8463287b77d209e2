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
///   - queued     -> the request is cancelled (no builder ever duplicates
///                   the caller's work) and nullptr returned with an open
///                   InlinePass: the caller prepares inline, refilling its
///                   own generation in place, while idle builders help fill
///                   that prepare's coin pass;
///   - unknown    -> the same: nullptr and an open InlinePass.
/// A builder helps an inline pass only when no queued seed waits.
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

  /// An open coin pass that Take hands out with no generation: the caller
  /// runs its inline prepare on it (Estimator::PrepareForNextQuery(seed,
  /// coins())), and idle builders help fill it. Destroying the handle closes
  /// the pass, which releases a helping builder also when the prepare failed
  /// or never began the pass, and drops the pass from the builders' list, so
  /// that no stale entry pins its fill array. Destroy it before the
  /// prebuilder, once the prepare has returned.
  class InlinePass {
   public:
    InlinePass() = default;
    InlinePass(const InlinePass&) = delete;
    InlinePass& operator=(const InlinePass&) = delete;
    ~InlinePass();

    /// The pass to prepare on; nullptr when Take handed out none.
    CoinPass* coins() const { return coins_.get(); }

   private:
    friend class GenerationPrebuilder;
    GenerationPrebuilder* prebuilder_ = nullptr;
    std::shared_ptr<CoinPass> coins_;
  };

  /// Claims the generation for `seed` (see class comment for the per-state
  /// behaviour). When it returns nullptr, it opens `*inline_pass` (which
  /// must be empty) for the caller's inline prepare. A failed background
  /// build surfaces here that way too, and the inline PrepareForNextQuery
  /// re-raises its error. Fills tossed while helping, here or by a builder
  /// on an inline pass, count in prebuilder_helped_fills_total.
  std::shared_ptr<const PreparedGeneration> Take(uint64_t seed,
                                                 InlinePass* inline_pass);

  /// Bytes resident in the ready pool right now (counted toward the
  /// engine's IndexMemoryReport::prebuilt_bytes).
  size_t ReadyBytes() const;

  size_t num_builders() const { return builders_.size(); }

  /// Stops the builder threads; queued seeds are abandoned, Take()
  /// afterwards only serves already-ready generations, and the inline passes
  /// it opens get no help. A builder helping an inline pass stops once that
  /// pass closes. Idempotent (the destructor calls it).
  void Shutdown();

 private:
  struct ReadyGeneration {
    std::shared_ptr<const PreparedGeneration> generation;
    size_t bytes = 0;
  };

  void BuilderLoop();
  /// Removes `coins` from inline_passes_, if listed. Caller holds mutex_.
  void EraseInlinePass(const CoinPass* coins);

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
  /// Coin passes of open inline prepares that no builder has finished
  /// helping yet. A helping builder moves its pass to the back, so that
  /// several builders spread over several passes.
  std::deque<std::shared_ptr<CoinPass>> inline_passes_;
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
