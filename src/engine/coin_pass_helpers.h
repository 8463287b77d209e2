#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace relcomp {

class CoinPass;

/// \brief Threads that help fill the coin passes of inline prepares.
///
/// BFS Sharing resamples its replica's worlds before every computed answer
/// (Estimator::PrepareForNextQuery, the paper's Table 15 cost), inline on the
/// worker that needs them, refilling the replica's own generation in place.
/// The resample's coin pass (CoinPass) can be filled by any number of
/// threads, so a worker opens an InlinePass around its prepare, and idle
/// helper threads claim blocks of that pass through CoinPass::Help. The words
/// are the same whoever fills them, so answers are bit-identical with any
/// number of helpers, or none.
class CoinPassHelpers {
 public:
  /// Starts `num_helpers` threads. `registry` (not owned, must outlive this
  /// object) receives coin_pass_helped_fills_total.
  CoinPassHelpers(obs::MetricsRegistry& registry, size_t num_helpers);
  ~CoinPassHelpers();

  CoinPassHelpers(const CoinPassHelpers&) = delete;
  CoinPassHelpers& operator=(const CoinPassHelpers&) = delete;

  /// An open coin pass for one inline prepare: the caller runs the prepare
  /// on it (Estimator::PrepareForNextQuery(seed, coins())), and idle helpers
  /// help fill it. Destroying the handle closes the pass, which releases a
  /// helper also when the prepare failed or never began the pass, and drops
  /// the pass from the helpers' list, so that no stale entry pins its fill
  /// array. Destroy it before the helpers, once the prepare has returned.
  class InlinePass {
   public:
    /// Opens a pass that `helpers` help fill; with `helpers` null, opens
    /// none (coins() is null and the prepare fills its coin pass alone).
    explicit InlinePass(CoinPassHelpers* helpers);
    ~InlinePass();
    InlinePass(const InlinePass&) = delete;
    InlinePass& operator=(const InlinePass&) = delete;

    /// The pass to prepare on; nullptr when none was opened.
    CoinPass* coins() const { return coins_.get(); }

   private:
    CoinPassHelpers* helpers_;
    std::shared_ptr<CoinPass> coins_;
  };

  size_t num_helpers() const { return helpers_.size(); }

  /// Stops the helper threads: passes opened afterwards get no help, and a
  /// helper inside a pass stops once that pass closes. Idempotent (the
  /// destructor calls it).
  void Shutdown();

 private:
  void HelperLoop();
  /// Removes `coins` from passes_, if listed. Caller holds mutex_.
  void ErasePass(const CoinPass* coins);

  std::mutex mutex_;
  std::condition_variable work_available_;
  /// Open passes that no helper has finished helping yet. A helping thread
  /// moves its pass to the back, so that several helpers spread over several
  /// passes.
  std::deque<std::shared_ptr<CoinPass>> passes_;
  bool shutdown_ = false;

  obs::Counter* helped_fills_;

  std::vector<std::thread> helpers_;  ///< last member: starts after state
};

}  // namespace relcomp
