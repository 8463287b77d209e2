#include "engine/coin_pass_helpers.h"

#include "common/coin_pass.h"

namespace relcomp {

CoinPassHelpers::CoinPassHelpers(obs::MetricsRegistry& registry,
                                 size_t num_helpers)
    : helped_fills_(registry.GetCounter("coin_pass_helped_fills_total")) {
  helpers_.reserve(num_helpers);
  for (size_t i = 0; i < num_helpers; ++i) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
}

CoinPassHelpers::~CoinPassHelpers() { Shutdown(); }

CoinPassHelpers::InlinePass::InlinePass(CoinPassHelpers* helpers)
    : helpers_(helpers) {
  if (helpers_ == nullptr) return;
  coins_ = std::make_shared<CoinPass>();
  std::lock_guard<std::mutex> lock(helpers_->mutex_);
  helpers_->passes_.push_back(coins_);
  helpers_->work_available_.notify_all();
}

CoinPassHelpers::InlinePass::~InlinePass() {
  if (coins_ == nullptr) return;
  coins_->Close();
  std::lock_guard<std::mutex> lock(helpers_->mutex_);
  helpers_->ErasePass(coins_.get());
}

void CoinPassHelpers::ErasePass(const CoinPass* coins) {
  std::erase_if(passes_, [coins](const std::shared_ptr<CoinPass>& listed) {
    return listed.get() == coins;
  });
}

void CoinPassHelpers::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    work_available_.notify_all();
  }
  for (std::thread& helper : helpers_) {
    if (helper.joinable()) helper.join();
  }
}

void CoinPassHelpers::HelperLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock,
                         [this] { return shutdown_ || !passes_.empty(); });
    if (shutdown_) return;
    // Help returns once the pass is closed (its InlinePass closes it when the
    // prepare returns) and nothing is left to claim, so no helper joins it
    // again.
    const std::shared_ptr<CoinPass> coins = passes_.front();
    passes_.pop_front();
    passes_.push_back(coins);
    lock.unlock();
    helped_fills_->Inc(coins->Help());
    lock.lock();
    ErasePass(coins.get());
  }
}

}  // namespace relcomp
