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

/// \brief The engine's helper threads: they help whatever pass is open.
///
/// A pass is work that a worker owns and other threads may join, claiming
/// pieces whose results do not depend on who computes them:
/// - the coin pass of a BFS Sharing inline prepare (CoinPass; see
///   InlinePass), whose words are the same whoever fills a block;
/// - a stratum work-list: the strata of an MC s-t estimate or of an MC sweep
///   flight, which the engine lists itself (QueryEngine). Each stratum is a
///   pure function of (seed, stratum, S), and uint32 hit sums do not depend
///   on order.
/// So answers are bit-identical with any number of helpers, or none. An idle
/// helper joins the pass at the front of the list and moves it to the back,
/// so that several helpers spread over several passes.
class HelperPool {
 public:
  /// Work that helpers can join.
  class Pass {
   public:
    virtual ~Pass() = default;
    /// Runs on helper thread `helper` (0 <= helper < num_helpers()) and
    /// returns once nothing is left for a helper to claim; the pool then
    /// takes the pass off its list.
    virtual void Help(size_t helper) = 0;
  };

  /// Starts `num_helpers` threads. `registry` (not owned, must outlive this
  /// object) receives coin_pass_helped_fills_total.
  HelperPool(obs::MetricsRegistry& registry, size_t num_helpers);
  ~HelperPool();

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  /// Lists `pass` for the idle helpers.
  void Open(std::shared_ptr<Pass> pass);
  /// Takes `pass` off the list, if it is still listed, so that no stale
  /// entry pins it; a helper already inside its Help stays there.
  void Close(const Pass& pass);

  /// An open coin pass for one inline prepare: the caller runs the prepare
  /// on it (Estimator::PrepareForNextQuery(seed, coins())), and idle helpers
  /// help fill it. Destroying the handle closes the pass, which releases a
  /// helper also when the prepare failed or never began the pass, and takes
  /// it off the list. Destroy it before the pool, once the prepare has
  /// returned.
  class InlinePass {
   public:
    /// Opens a pass that `helpers` help fill; with `helpers` null, opens
    /// none (coins() is null and the prepare fills its coin pass alone).
    explicit InlinePass(HelperPool* helpers);
    ~InlinePass();
    InlinePass(const InlinePass&) = delete;
    InlinePass& operator=(const InlinePass&) = delete;

    /// The pass to prepare on; nullptr when none was opened.
    CoinPass* coins() const { return coins_; }

   private:
    HelperPool* helpers_;
    std::shared_ptr<Pass> pass_;
    CoinPass* coins_ = nullptr;
  };

  size_t num_helpers() const { return helpers_.size(); }

  /// Stops the helper threads: passes opened afterwards get no help, and a
  /// helper inside a pass stops once its Help returns. Idempotent (the
  /// destructor calls it).
  void Shutdown();

 private:
  class CoinFill;

  void HelperLoop(size_t helper);
  /// Removes `pass` from passes_, if listed. Caller holds mutex_.
  void ErasePass(const Pass* pass);

  std::mutex mutex_;
  std::condition_variable work_available_;
  /// Open passes that no helper has finished helping yet.
  std::deque<std::shared_ptr<Pass>> passes_;
  bool shutdown_ = false;

  obs::Counter* helped_fills_;

  std::vector<std::thread> helpers_;  ///< last member: starts after state
};

}  // namespace relcomp
