#include "engine/generation_prebuilder.h"

#include <utility>

#include "common/coin_pass.h"

namespace relcomp {

GenerationPrebuilder::GenerationPrebuilder(const Estimator& prototype,
                                           obs::MetricsRegistry& registry,
                                           size_t max_pending,
                                           size_t num_builders)
    : prototype_(prototype),
      max_pending_(max_pending == 0 ? 1 : max_pending),
      requested_(registry.GetCounter("prebuilder_requested_total")),
      built_(registry.GetCounter("prebuilder_built_total")),
      taken_(registry.GetCounter("prebuilder_taken_total")),
      dropped_(registry.GetCounter("prebuilder_dropped_total")),
      evicted_(registry.GetCounter("prebuilder_evicted_total")),
      helped_fills_(registry.GetCounter("prebuilder_helped_fills_total")),
      ready_bytes_gauge_(registry.GetGauge("prebuilder_ready_bytes")) {
  if (num_builders == 0) num_builders = 1;
  builders_.reserve(num_builders);
  for (size_t i = 0; i < num_builders; ++i) {
    builders_.emplace_back([this] { BuilderLoop(); });
  }
}

GenerationPrebuilder::~GenerationPrebuilder() { Shutdown(); }

bool GenerationPrebuilder::Request(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return false;
  if (queued_.count(seed) != 0 || ready_.count(seed) != 0 ||
      building_.count(seed) != 0) {
    return true;  // already on its way
  }
  if (queue_.size() + ready_.size() >= max_pending_) {
    // At the bound, prefer the new request over stranded finished work:
    // evict the oldest ready-but-unclaimed generation (typically built for a
    // query that was then served from the result cache and never prepared).
    // Without this, stranded generations would pin index-sized memory and
    // wedge the builder shut for every future seed.
    if (ready_order_.empty()) {
      dropped_->Inc();
      return false;
    }
    // ready_order_ mirrors ready_ exactly (Take() erases its entry), so the
    // front really is the oldest unclaimed generation.
    auto oldest = ready_.find(ready_order_.front());
    ready_bytes_ -= oldest->second.bytes;
    ready_bytes_gauge_->Set(static_cast<double>(ready_bytes_));
    ready_.erase(oldest);
    ready_order_.pop_front();
    evicted_->Inc();
  }
  queue_.push_back(seed);
  queued_.insert(seed);
  requested_->Inc();
  work_available_.notify_one();
  return true;
}

GenerationPrebuilder::InlinePass::~InlinePass() {
  if (coins_ == nullptr) return;
  coins_->Close();
  std::lock_guard<std::mutex> lock(prebuilder_->mutex_);
  prebuilder_->EraseInlinePass(coins_.get());
}

std::shared_ptr<const PreparedGeneration> GenerationPrebuilder::Take(
    uint64_t seed, InlinePass* inline_pass) {
  std::unique_lock<std::mutex> lock(mutex_);
  // In-flight on some builder: help fill its coin pass, then wait out the
  // rest — finishing a half-done O(L m) build beats starting the same build
  // from scratch inline. Help returns once nothing is left to claim, which
  // may be before the builder's own last blocks are done.
  if (auto building = building_.find(seed); building != building_.end()) {
    const std::shared_ptr<CoinPass> coins = building->second;
    lock.unlock();
    helped_fills_->Inc(coins->Help());
    lock.lock();
  }
  build_finished_.wait(lock,
                       [this, seed] { return building_.count(seed) == 0; });
  auto it = ready_.find(seed);
  if (it != ready_.end()) {
    std::shared_ptr<const PreparedGeneration> generation =
        std::move(it->second.generation);
    ready_bytes_ -= it->second.bytes;
    ready_bytes_gauge_->Set(static_cast<double>(ready_bytes_));
    ready_.erase(it);
    // Keep the eviction order exact: a taken seed must not linger as a
    // stale entry (it would grow unboundedly on long-lived streams and
    // could later evict a *rebuilt* generation for the same seed out of
    // turn). The deque is bounded by max_pending, so the scan is cheap.
    for (auto order_it = ready_order_.begin(); order_it != ready_order_.end();
         ++order_it) {
      if (*order_it == seed) {
        ready_order_.erase(order_it);
        break;
      }
    }
    taken_->Inc();
    return generation;
  }
  // Queued but not started: cancel so no builder ever duplicates the
  // caller's inline build.
  if (queued_.erase(seed) != 0) {
    for (auto queue_it = queue_.begin(); queue_it != queue_.end(); ++queue_it) {
      if (*queue_it == seed) {
        queue_.erase(queue_it);
        break;
      }
    }
  }
  // The caller prepares inline, on a pass the idle builders help fill. It is
  // not registered in building_: a second Take of this seed prepares its own
  // replica inline instead of waiting for a generation that never arrives.
  inline_pass->prebuilder_ = this;
  inline_pass->coins_ = std::make_shared<CoinPass>();
  inline_passes_.push_back(inline_pass->coins_);
  work_available_.notify_all();
  return nullptr;
}

void GenerationPrebuilder::EraseInlinePass(const CoinPass* coins) {
  std::erase_if(inline_passes_,
                [coins](const std::shared_ptr<CoinPass>& listed) {
                  return listed.get() == coins;
                });
}

size_t GenerationPrebuilder::ReadyBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ready_bytes_;
}

void GenerationPrebuilder::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    queue_.clear();
    queued_.clear();
    work_available_.notify_all();
  }
  for (std::thread& builder : builders_) {
    if (builder.joinable()) builder.join();
  }
}

void GenerationPrebuilder::BuilderLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [this] {
      return shutdown_ || !queue_.empty() || !inline_passes_.empty();
    });
    if (shutdown_) return;
    if (queue_.empty()) {
      // No seed waits: help an inline prepare's coin pass. Help returns once
      // the pass is closed (its InlinePass closes it when the prepare
      // returns) and nothing is left to claim, so no builder joins it again.
      const std::shared_ptr<CoinPass> coins = inline_passes_.front();
      inline_passes_.pop_front();
      inline_passes_.push_back(coins);
      lock.unlock();
      helped_fills_->Inc(coins->Help());
      lock.lock();
      EraseInlinePass(coins.get());
      continue;
    }
    // FIFO pop = the request made earliest = the seed whose query is closest
    // to dispatch; with several builders the front seeds build concurrently.
    const uint64_t seed = queue_.front();
    queue_.pop_front();
    queued_.erase(seed);
    const auto coins = std::make_shared<CoinPass>();
    building_.emplace(seed, coins);
    lock.unlock();
    // Off-lock build: BuildPreparedGeneration is thread-safe by contract
    // (reads only construction-time immutable state of the prototype). A
    // Take of this seed meanwhile helps fill its coin pass.
    Result<std::shared_ptr<const PreparedGeneration>> generation =
        prototype_.BuildPreparedGeneration(seed, coins.get());
    // A build that failed before its coin pass began never closed it.
    coins->Close();
    lock.lock();
    building_.erase(seed);
    if (generation.ok() && !shutdown_) {
      ReadyGeneration ready;
      ready.bytes = generation.value()->MemoryBytes();
      ready.generation = generation.MoveValue();
      ready_bytes_ += ready.bytes;
      ready_bytes_gauge_->Set(static_cast<double>(ready_bytes_));
      ready_.emplace(seed, std::move(ready));
      ready_order_.push_back(seed);
      built_->Inc();
    }
    // A failed build is dropped: Take() returns nullptr and the serving
    // thread's inline PrepareForNextQuery re-raises the error in context.
    build_finished_.notify_all();
  }
}

}  // namespace relcomp
