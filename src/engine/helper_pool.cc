#include "engine/helper_pool.h"

#include "common/coin_pass.h"

namespace relcomp {

/// A coin pass as helpers see it: Help fills blocks until the pass is closed
/// and nothing is left to claim.
class HelperPool::CoinFill : public HelperPool::Pass {
 public:
  explicit CoinFill(obs::Counter* helped_fills) : helped_fills_(helped_fills) {}

  void Help(size_t /*helper*/) override { helped_fills_->Inc(coins.Help()); }

  CoinPass coins;

 private:
  obs::Counter* helped_fills_;
};

HelperPool::HelperPool(obs::MetricsRegistry& registry, size_t num_helpers)
    : helped_fills_(registry.GetCounter("coin_pass_helped_fills_total")) {
  helpers_.reserve(num_helpers);
  for (size_t i = 0; i < num_helpers; ++i) {
    helpers_.emplace_back([this, i] { HelperLoop(i); });
  }
}

HelperPool::~HelperPool() { Shutdown(); }

void HelperPool::Open(std::shared_ptr<Pass> pass) {
  std::lock_guard<std::mutex> lock(mutex_);
  passes_.push_back(std::move(pass));
  work_available_.notify_all();
}

void HelperPool::Close(const Pass& pass) {
  std::lock_guard<std::mutex> lock(mutex_);
  ErasePass(&pass);
}

HelperPool::InlinePass::InlinePass(HelperPool* helpers) : helpers_(helpers) {
  if (helpers_ == nullptr) return;
  auto fill = std::make_shared<CoinFill>(helpers_->helped_fills_);
  coins_ = &fill->coins;
  pass_ = std::move(fill);
  helpers_->Open(pass_);
}

HelperPool::InlinePass::~InlinePass() {
  if (pass_ == nullptr) return;
  coins_->Close();
  helpers_->Close(*pass_);
}

void HelperPool::ErasePass(const Pass* pass) {
  std::erase_if(passes_, [pass](const std::shared_ptr<Pass>& listed) {
    return listed.get() == pass;
  });
}

void HelperPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    work_available_.notify_all();
  }
  for (std::thread& helper : helpers_) {
    if (helper.joinable()) helper.join();
  }
}

void HelperPool::HelperLoop(size_t helper) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock,
                         [this] { return shutdown_ || !passes_.empty(); });
    if (shutdown_) return;
    // Help returns once nothing is left to claim, so no helper joins the
    // pass again.
    const std::shared_ptr<Pass> pass = passes_.front();
    passes_.pop_front();
    passes_.push_back(pass);
    lock.unlock();
    pass->Help(helper);
    lock.lock();
    ErasePass(pass.get());
  }
}

}  // namespace relcomp
