#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/cancel.h"
#include "engine/lru_cache.h"

namespace relcomp {

/// \brief What every single-flight computation carries: the lock its fields
/// live under, the condition its waiters sleep on, and the flag Finish sets.
struct FlightState {
  std::mutex mutex;
  std::condition_variable done;
  bool ready = false;
};

/// \brief One single-flight table: concurrent cache misses for one key share
/// one in-flight computation (src/engine/README.md, "Single-flight
/// coalescing", states the protocol).
///
/// `Flight` derives from FlightState and carries the computation's outcome;
/// the table never looks past FlightState, so no table code branches on
/// which flight it serves. Keys compare in full (their Hash() only buckets),
/// so a hash collision never coalesces two distinct keys. An entry exists
/// only while some worker actively computes its flight, so a waiter never
/// waits on queued-but-unstarted work.
template <typename Key, typename Flight>
class FlightTable {
 public:
  /// How long a cancellable waiter sleeps between token polls. Purely a
  /// latency/CPU trade: the poll consumes no randomness, and Finish still
  /// wakes every waiter at once.
  static constexpr std::chrono::milliseconds kCancelWaitSlice{5};

  /// Outcome of JoinOrCreate: the cached value when the re-probe served the
  /// key; otherwise the flight, which this caller leads iff `leader`.
  template <typename Value>
  struct Joined {
    std::optional<Value> cached;
    std::shared_ptr<Flight> flight;
    bool leader = false;
  };

  /// Rendezvous for `key` under the table lock. It first re-probes `cache`
  /// (uncounted, since the caller already counted its miss): Finish
  /// publishes before it retires, so a miss after a successful flight finds
  /// the key in the cache or in the table, never in neither. A failed flight
  /// publishes nothing, so a miss after it retires leads a new flight.
  /// Otherwise it joins the key's flight, or creates one from `args` and
  /// makes the caller its leader.
  template <typename Value, typename... Args>
  Joined<Value> JoinOrCreate(const Key& key, LruCache<Key, Value>& cache,
                             Args&&... args) {
    Joined<Value> joined;
    std::lock_guard<std::mutex> lock(mutex_);
    joined.cached = cache.Lookup(key, /*record_stats=*/false);
    if (joined.cached) return joined;
    auto [it, inserted] = flights_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Flight>(std::forward<Args>(args)...);
      joined.leader = true;
    }
    joined.flight = it->second;
    return joined;
  }

  /// Publish -> retire -> wake: `publish()` stores the outcome in the cache,
  /// the entry leaves the table, `settle(flight)` stores the outcome in the
  /// flight under its lock, and every waiter wakes.
  template <typename Publish, typename Settle>
  void Finish(const Key& key, Flight& flight, Publish&& publish,
              Settle&& settle) {
    publish();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flights_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(flight.mutex);
      settle(flight);
      flight.ready = true;
    }
    flight.done.notify_all();
  }

  /// Blocks until `flight` is ready and returns true. With a `cancel` token
  /// it polls the token every kCancelWaitSlice and returns false once it
  /// trips, leaving the flight untouched. What Finish settled is never
  /// written again, so a caller that got true may read it without the lock.
  static bool Await(Flight& flight, const CancelToken* cancel) {
    std::unique_lock<std::mutex> lock(flight.mutex);
    const auto ready = [&flight] { return flight.ready; };
    if (cancel == nullptr) {
      flight.done.wait(lock, ready);
      return true;
    }
    while (!ready()) {
      if (cancel->Cancelled()) return false;
      flight.done.wait_for(lock, kCancelWaitSlice, ready);
    }
    return true;
  }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<Flight>, KeyHash> flights_;
};

}  // namespace relcomp
