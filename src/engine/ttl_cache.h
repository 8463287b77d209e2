#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Full identity of a cacheable workload result. Two engine calls
/// with equal keys are guaranteed (by the determinism contract of Estimator)
/// to produce bit-identical answers, so serving one from cache is
/// semantically invisible. The workload tag lives inside `query`, so two
/// workload kinds over the same nodes can never collide.
struct ResultCacheKey {
  EngineQuery query;
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  uint32_t num_samples = 0;
  uint64_t seed = 0;

  bool operator==(const ResultCacheKey& other) const {
    return query == other.query && kind == other.kind &&
           num_samples == other.num_samples && seed == other.seed;
  }

  /// SplitMix-chained hash over every field (workload tag included); also
  /// selects the shard.
  uint64_t Hash() const;
};

/// \brief Cached payload: either a successful answer (scalar reliability for
/// st/distance, ranked targets for top-k/reliable-set, plus the sample count
/// consumed) or — when `status` is non-OK — a cached estimator failure
/// (negative caching: a hot failing key stops recomputing on every miss).
struct ResultCacheValue {
  ResultCacheValue() = default;
  /// Scalar payload (st / distance answers); status OK, no targets.
  ResultCacheValue(double reliability, uint32_t num_samples)
      : reliability(reliability), num_samples(num_samples) {}

  double reliability = 0.0;
  uint32_t num_samples = 0;
  /// Non-OK marks a negative entry; the payload fields are meaningless then.
  Status status;
  /// Top-k / reliable-set answers.
  std::vector<ReliableTarget> targets;

  bool negative() const { return !status.ok(); }
};

/// \brief Identity of one memoized per-source reliability sweep.
///
/// `seed` is the engine's *sweep seed* — derived from the source (not from
/// k or eta, and not from the workload tag), so every top-k(s, ·) and
/// reliable-set(s, ·) query over one source maps to the same key. For BFS
/// Sharing the seed also determines the index generation the sweep ran over
/// (the engine re-arms with a tagged derivative of it), which is why the key
/// needs no separate generation field.
struct SweepCacheKey {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  NodeId source = kInvalidNode;
  uint32_t num_samples = 0;
  uint64_t seed = 0;

  bool operator==(const SweepCacheKey& other) const {
    return kind == other.kind && source == other.source &&
           num_samples == other.num_samples && seed == other.seed;
  }

  /// SplitMix-chained hash over every field.
  uint64_t Hash() const;
};

/// One per-source sweep: n doubles, shared read-only so eviction never
/// invalidates a reader mid-derivation.
using SweepVector = std::shared_ptr<const std::vector<double>>;

/// \brief What a TtlCache needs to know about its value type; one
/// specialization per cached type. `Charge` is the byte cost an entry is
/// admitted and evicted by (`framing` = the cache's per-entry overhead, for
/// types that pay it), `Negative` marks a cached failure, and `Admissible`
/// refuses values that must never be cached.
template <typename Value>
struct CacheValueTraits;

template <>
struct CacheValueTraits<ResultCacheValue> {
  static constexpr const char* kMetricPrefix = "result_cache";
  /// Entry framing plus the ranked-target payload and any status message: a
  /// top-k entry carrying k targets costs ~k× an s-t scalar.
  static size_t Charge(const ResultCacheValue& value, size_t framing) {
    return framing + value.targets.size() * sizeof(ReliableTarget) +
           value.status.message().size();
  }
  static bool Negative(const ResultCacheValue& value) {
    return value.negative();
  }
  /// A transient failure (deadline, cancellation, shed) says nothing about
  /// the key itself; negative-caching it would make a momentary condition
  /// sticky for the TTL.
  static bool Admissible(const ResultCacheValue& value) {
    return !IsTransientStatusCode(value.status.code());
  }
};

template <>
struct CacheValueTraits<SweepVector> {
  static constexpr const char* kMetricPrefix = "sweep_cache";
  /// Payload bytes only (n × 8): a sweep dwarfs any framing.
  static size_t Charge(const SweepVector& sweep, size_t /*framing*/) {
    return sweep == nullptr ? 0 : sweep->size() * sizeof(double);
  }
  static bool Negative(const SweepVector& /*sweep*/) { return false; }
  static bool Admissible(const SweepVector& sweep) { return sweep != nullptr; }
};

/// Monotonic counters plus occupancy at snapshot time; a snapshot type so
/// callers can diff two points in time.
struct CacheStats {
  uint64_t hits = 0;           ///< positive entries served
  uint64_t negative_hits = 0;  ///< cached failures served (failure backoff)
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;   ///< entries dropped because their TTL elapsed
  uint64_t rejected = 0;  ///< entries larger than a whole shard's byte budget
  size_t bytes_in_use = 0;  ///< charged bytes resident at snapshot time
  size_t entries = 0;       ///< entries resident at snapshot time

  uint64_t lookups() const { return hits + negative_hits + misses; }
  double hit_rate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// \brief Sharded LRU cache with lazy TTL expiry, negative entries and a
/// byte budget; the engine's result cache and sweep memo are its two
/// instantiations (ResultCache, SweepCache below).
///
/// Each shard owns a mutex, an LRU list and a hash map, so concurrent
/// lookups on different keys mostly touch different locks. The entry
/// capacity and the byte budget are split evenly across shards; eviction is
/// LRU per shard until *both* budgets hold. An entry larger than a whole
/// shard's byte budget is rejected outright (counted in `rejected`), and any
/// older copy of its key is dropped — admitting it would flush the shard for
/// an entry that cannot amortize.
///
/// Entries may carry a TTL (0 = immortal): an expired entry is dropped on
/// the lookup that discovers it (counted in `expired`) and the lookup
/// proceeds as a miss. Negative entries (Traits::Negative) are served like
/// hits but counted separately and never exported. Values are copied out,
/// so eviction never invalidates a reader.
template <typename Key, typename Value>
class TtlCache {
 public:
  using Traits = CacheValueTraits<Value>;

  /// One cached entry as exported for the persistence journal.
  struct Export {
    Key key;
    Value value;
  };

  /// Entry capacity meaning "evict by bytes only".
  static constexpr size_t kNoEntryLimit = ~size_t{0};

  /// `capacity` = total entries across all shards (>= 1 enforced);
  /// `num_shards` is rounded up to a power of two and capped at `capacity`;
  /// `max_bytes` = total charged-byte budget across all shards (0 =
  /// unlimited). `registry` (optional, not owned, must outlive the cache)
  /// receives the `<Traits::kMetricPrefix>_*` instruments; when nullptr a
  /// private registry is owned.
  explicit TtlCache(size_t capacity, size_t num_shards = 8,
                    size_t max_bytes = 0,
                    obs::MetricsRegistry* registry = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity), max_bytes_(max_bytes) {
    if (registry == nullptr) {
      owned_registry_ = std::make_unique<obs::MetricsRegistry>();
      registry = owned_registry_.get();
    }
    const std::string prefix = Traits::kMetricPrefix;
    hits_ = registry->GetCounter(prefix + "_hits_total");
    negative_hits_ = registry->GetCounter(prefix + "_negative_hits_total");
    misses_ = registry->GetCounter(prefix + "_misses_total");
    insertions_ = registry->GetCounter(prefix + "_insertions_total");
    evictions_ = registry->GetCounter(prefix + "_evictions_total");
    expired_ = registry->GetCounter(prefix + "_expired_total");
    rejected_ = registry->GetCounter(prefix + "_rejected_total");
    bytes_gauge_ = registry->GetGauge(prefix + "_bytes");
    entries_gauge_ = registry->GetGauge(prefix + "_entries");
    size_t shards = 1;
    while (shards < num_shards) shards <<= 1;
    // No more shards than entries, or some shards could never hold anything.
    while (shards > 1 && shards > capacity_) shards >>= 1;
    // A per-shard budget below the smallest value's charge would reject
    // every insert and silently disable the shard; floor it so tiny budgets
    // degrade to "hold one smallest entry" per shard instead.
    const size_t byte_floor = Charge(Value{});
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
      if (max_bytes_ > 0) {
        shard->byte_budget = std::max(
            max_bytes_ / shards + (i < max_bytes_ % shards ? 1 : 0),
            byte_floor);
      }
      shards_.push_back(std::move(shard));
    }
  }

  /// Charged bytes for caching `value` (see CacheValueTraits::Charge).
  static size_t Charge(const Value& value) {
    return Traits::Charge(value, sizeof(Entry));
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  /// `record_stats` = false makes the probe invisible to Stats() — for
  /// internal double-checks (the engine's single-flight rendezvous re-probes
  /// under its flight lock) that would otherwise count one user-level query
  /// as two lookups.
  std::optional<Value> Lookup(const Key& key, bool record_stats = true) {
    const HashedKey hashed{key, key.Hash()};
    Shard& shard = ShardFor(hashed.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(hashed);
    if (it == shard.index.end()) {
      if (record_stats) misses_->Inc();
      return std::nullopt;
    }
    Entry& entry = *it->second;
    if (Expired(entry)) {
      // Lazy expiry: the lookup that finds an entry past its deadline drops
      // it (a cached failure must not outlive its backoff). Counted even on
      // uncounted probes: the entry really is gone either way.
      const size_t bytes_before = shard.bytes;
      const size_t entries_before = shard.lru.size();
      RemoveEntry(shard, it);
      Publish(shard, bytes_before, entries_before);
      expired_->Inc();
      if (record_stats) misses_->Inc();
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (record_stats) {
      (Traits::Negative(entry.value) ? negative_hits_ : hits_)->Inc();
    }
    return entry.value;
  }

  /// True when a live (unexpired) entry exists for `key`. Touches neither
  /// recency nor stats and copies no payload — a pure probe; the next
  /// Lookup reaps an expired entry.
  bool Contains(const Key& key) const {
    const HashedKey hashed{key, key.Hash()};
    Shard& shard = *shards_[hashed.hash & (shards_.size() - 1)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(hashed);
    return it != shard.index.end() && !Expired(*it->second);
  }

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's LRU
  /// entries until both budgets hold. `ttl_seconds` > 0 puts a deadline on
  /// the entry (an infinite or out-of-range TTL means none); 0 means it
  /// never expires. Re-inserting a key replaces its value and TTL.
  /// Inadmissible values are refused.
  void Insert(const Key& key, Value value, double ttl_seconds = 0.0) {
    if (!Traits::Admissible(value)) return;
    const HashedKey hashed{key, key.Hash()};
    if (FaultInjector::Global().enabled() &&
        FaultInjector::Global().ShouldInject(FaultSite::kAllocFailure,
                                             hashed.hash)) {
      // Injected allocation failure: the insert is dropped, which the cache
      // contract already allows, so correctness must be unaffected.
      return;
    }
    const size_t charge = Charge(value);
    const uint64_t deadline_ns =
        ttl_seconds > 0.0 ? DeadlineAfter(StopwatchNs::Now(), ttl_seconds) : 0;
    Shard& shard = ShardFor(hashed.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const size_t bytes_before = shard.bytes;
    const size_t entries_before = shard.lru.size();
    auto it = shard.index.find(hashed);
    if (shard.byte_budget > 0 && charge > shard.byte_budget) {
      // The key's older incarnation is outdated next to the rejected fresh
      // value; drop it rather than keep serving it.
      if (it != shard.index.end()) {
        RemoveEntry(shard, it);
        evictions_->Inc();
      }
      rejected_->Inc();
      Publish(shard, bytes_before, entries_before);
      return;
    }
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      shard.bytes = shard.bytes - entry.bytes + charge;
      entry.value = std::move(value);
      entry.deadline_ns = deadline_ns;
      entry.bytes = charge;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{hashed, std::move(value), deadline_ns, charge});
      shard.index.emplace(hashed, shard.lru.begin());
      shard.bytes += charge;
      insertions_->Inc();
    }
    // The freshly touched entry is at the front and (having passed
    // admission) fits the byte budget alone, so this never evicts it.
    while ((shard.lru.size() > shard.capacity ||
            (shard.byte_budget > 0 && shard.bytes > shard.byte_budget)) &&
           shard.lru.size() > 1) {
      RemoveEntry(shard, shard.index.find(shard.lru.back().key));
      evictions_->Inc();
    }
    Publish(shard, bytes_before, entries_before);
  }

  /// Snapshot of every immortal *positive* entry for the persistence
  /// journal (shard by shard, most-recent first within a shard). Negative
  /// entries are excluded — their backoff must not survive a restart — and
  /// so is any entry with a TTL, which an exported record could not carry
  /// (a const probe; nothing is reaped).
  std::vector<Export> ExportEntries() const {
    std::vector<Export> out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      for (const Entry& entry : shard->lru) {
        if (Traits::Negative(entry.value) || entry.deadline_ns != 0) continue;
        out.push_back(Export{entry.key.key, entry.value});
      }
    }
    return out;
  }

  /// Drops every entry (stats are kept).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      const size_t bytes_before = shard->bytes;
      const size_t entries_before = shard->lru.size();
      shard->lru.clear();
      shard->index.clear();
      shard->bytes = 0;
      Publish(*shard, bytes_before, entries_before);
    }
  }

  CacheStats Stats() const {
    CacheStats stats;
    stats.hits = hits_->Value();
    stats.negative_hits = negative_hits_->Value();
    stats.misses = misses_->Value();
    stats.insertions = insertions_->Value();
    stats.evictions = evictions_->Value();
    stats.expired = expired_->Value();
    stats.rejected = rejected_->Value();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      stats.bytes_in_use += shard->bytes;
      stats.entries += shard->lru.size();
    }
    return stats;
  }

  size_t size() const { return Stats().entries; }
  /// Charged bytes currently resident across all shards.
  size_t bytes_in_use() const { return Stats().bytes_in_use; }
  size_t capacity() const { return capacity_; }
  /// Total charged-byte budget (0 = unlimited).
  size_t max_bytes() const { return max_bytes_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  /// Key paired with its precomputed hash: Hash() runs once per cache
  /// operation (shard pick + map probe reuse it).
  struct HashedKey {
    Key key;
    uint64_t hash;
  };
  struct Entry {
    HashedKey key;
    Value value;
    /// Expiry deadline as an absolute StopwatchNs::Now() reading; 0 =
    /// immortal.
    uint64_t deadline_ns = 0;
    /// Charged bytes (Charge at insertion), subtracted on removal.
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const HashedKey& k) const {
      return static_cast<size_t>(k.hash);
    }
  };
  struct KeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.key == b.key;
    }
  };
  using Index =
      std::unordered_map<HashedKey, typename std::list<Entry>::iterator,
                         KeyHash, KeyEq>;
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    Index index;
    size_t capacity = 0;
    /// Byte budget (0 = unlimited) and current charge.
    size_t byte_budget = 0;
    size_t bytes = 0;
  };

  static bool Expired(const Entry& entry) {
    return entry.deadline_ns != 0 && StopwatchNs::Now() >= entry.deadline_ns;
  }

  Shard& ShardFor(uint64_t hash) {
    return *shards_[hash & (shards_.size() - 1)];
  }

  /// Removes `it`'s entry from `shard` (caller holds the shard mutex).
  static void RemoveEntry(Shard& shard, typename Index::iterator it) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

  /// Moves the occupancy gauges by what one locked operation changed, so an
  /// insert that evicts an equal-sized entry touches neither.
  void Publish(const Shard& shard, size_t bytes_before, size_t entries_before) {
    if (shard.bytes != bytes_before) {
      bytes_gauge_->Add(static_cast<double>(shard.bytes) -
                        static_cast<double>(bytes_before));
    }
    if (shard.lru.size() != entries_before) {
      entries_gauge_->Add(static_cast<double>(shard.lru.size()) -
                          static_cast<double>(entries_before));
    }
  }

  size_t capacity_;
  size_t max_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Private fallback when no shared registry was handed in.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* hits_;
  obs::Counter* negative_hits_;
  obs::Counter* misses_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
  obs::Counter* expired_;
  obs::Counter* rejected_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* entries_gauge_;
};

/// Workload results: 8 shards, bounded by `cache_capacity` entries and
/// `cache_max_bytes`.
using ResultCache = TtlCache<ResultCacheKey, ResultCacheValue>;
/// Per-source sweeps: one shard (a global LRU order), bounded by bytes only
/// (construct with capacity kNoEntryLimit and one shard).
using SweepCache = TtlCache<SweepCacheKey, SweepVector>;

}  // namespace relcomp
