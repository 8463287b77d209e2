#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "engine/engine_stats.h"
#include "engine/generation_prebuilder.h"
#include "engine/single_flight.h"
#include "engine/thread_pool.h"
#include "engine/ttl_cache.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/store.h"
#include "reliability/estimator.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief Construction knobs for QueryEngine::Create.
struct EngineOptions {
  /// Worker threads; one estimator replica is built per worker. Replicas of
  /// index-carrying estimators share one immutable index (built once), so
  /// Create cost and index memory are O(1) in num_threads.
  size_t num_threads = 4;
  /// Bounded work-queue depth; Submit() blocks when full (backpressure).
  size_t queue_capacity = 1024;
  /// Which estimator answers the queries. Workload support varies by kind:
  /// every kind answers st; MC and BFS Sharing answer top-k / reliable-set
  /// sweeps; MC and RHH answer distance-constrained queries. An unsupported
  /// (kind, workload) pair fails that query (NotSupported), never the batch.
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Sample budget K per query.
  uint32_t num_samples = 1000;
  /// Stratified sample partitioning S: the budget K of every MC estimate is
  /// split into S fixed strata, each seeded from the query's content seed
  /// and its stratum index — so a result is a canonical function of (query
  /// content, S), never of thread count or scheduling. Under sweep-level
  /// single-flight, coalesced waiters *steal unclaimed strata* of the
  /// in-flight sweep instead of blocking: one hot sweep uses the whole
  /// machine, bit-identically to running its strata back-to-back on one
  /// worker. S = 1 (the default) is the legacy unstratified path; serving
  /// deployments chasing tail latency set S to a small multiple of
  /// num_threads. Changing S changes MC results (by design — it is part of
  /// the query's sampling plan); BFS Sharing sweeps are stratified by world
  /// slices of one generation and are bit-identical for every S.
  uint32_t num_strata = 1;
  /// Master seed. Per-query seeds are derived from it and the query content
  /// (see README.md), so results are independent of thread count and
  /// scheduling order.
  uint64_t seed = 0;
  /// Result cache on/off + sizing. A successful answer stays cached until
  /// LRU or byte-budget eviction: answers are content-deterministic, so an
  /// expiry would only recompute identical bits.
  bool enable_cache = true;
  size_t cache_capacity = 1 << 16;
  /// Byte budget for the result cache (0 = unlimited): entries are charged
  /// their real payload bytes — a top-k entry carrying k ranked targets
  /// costs ~k× an s-t scalar — and each shard evicts by bytes on top of the
  /// entry capacity. See ResultCache.
  size_t cache_max_bytes = 0;
  /// Failure backoff: estimator errors are cached for this many seconds
  /// (negative caching), so a hot failing key stops recomputing — and
  /// re-failing — on every miss; after the TTL it retries. 0 disables
  /// negative caching. Requires enable_cache. The only cache TTL.
  double negative_cache_ttl = 1.0;
  /// Single-flight request coalescing: concurrent cache misses for the same
  /// key share one in-flight computation instead of computing twins on
  /// separate workers — at the query level AND at the sweep level (misses
  /// that need the same source's sweep, even across workload kinds and
  /// parameters, share one EstimateFromSource). Semantically invisible
  /// (results are content-deterministic); off only for A/B measurement.
  bool enable_coalescing = true;
  /// Sweep memoization: keep the per-source reliability vector of top-k /
  /// reliable-set queries in a size-aware SweepCache so later queries over
  /// the same source — any k, any eta — derive their answers without
  /// re-running the BFS. Independent of enable_cache (the result cache
  /// memoizes derived answers per exact query; the sweep cache memoizes the
  /// vector they derive from). Semantically invisible: the engine's sweep
  /// seeds depend only on the source, so a derived answer is bit-identical
  /// to a recomputation.
  bool enable_sweep_cache = true;
  /// Byte budget for the sweep cache (one sweep = num_nodes doubles).
  size_t sweep_cache_max_bytes = size_t{128} << 20;
  /// Warm-ahead sweep scouting: RunBatch (and the stream path) sees a
  /// batch's sweep sources up front, so before the queries drain, a scout
  /// pass enqueues stratified warm tasks for the hottest sources (ranked by
  /// batch frequency) — the way prepare seeds already feed the generation
  /// prebuilder. A scout that wins the sweep's single-flight leads the very
  /// sweep the queries would have led (same seed, same strata, stealable by
  /// the queries it outran), so results are bit-identical with scouting on
  /// or off; it only moves the hottest sweeps to the front of the pool.
  /// Effective only with coalescing and the sweep cache on (it needs the
  /// single-flight table and the memo to hand its vector over).
  bool enable_sweep_scout = true;
  /// Background generation prebuilding: when the estimator kind supports
  /// prepared generations (BFS Sharing), a builder thread constructs the
  /// next queries' PrepareForNextQuery artifacts (world resampling)
  /// overlapping the previous queries' BFS, and workers adopt them in O(1)
  /// instead of resampling inline on the serving path. Bit-identical on or
  /// off.
  bool enable_generation_prebuild = true;
  /// Bound on queued + ready-but-unclaimed prebuilt generations. NOTE: the
  /// bound is a *count*, and every ready generation holds a full index-sized
  /// artifact (a BFS Sharing generation is the L-bit-per-edge vectors, the
  /// same order as the shared index itself) that is not part of
  /// IndexMemory() — size this knob as "how many spare indexes fit in RAM".
  /// At the bound the oldest ready generation is evicted for a new request;
  /// if all pending work is queued / in-flight, the request is dropped and
  /// the affected query simply resamples inline.
  size_t prebuild_max_pending = 16;
  /// Byte budget for the prebuilder's ready pool (0 = bounded by count
  /// only): ready generations are charged their real
  /// PreparedGeneration::MemoryBytes() — index-sized for BFS Sharing — and
  /// the oldest are evicted when the pool exceeds the budget. The resident
  /// pool is reported in IndexMemoryReport::prebuilt_bytes.
  size_t prebuild_max_bytes = 0;
  /// \name Fault tolerance & graceful degradation (see README "Failure
  /// semantics & degraded modes")
  /// @{
  /// Deadline in milliseconds applied to every query that does not carry its
  /// own EngineQuery::deadline_ms; 0 = no default deadline. The clock starts
  /// at submission, so queue wait counts against it. An expired query fails
  /// with kDeadlineExceeded — a transient status, never negative-cached —
  /// and cancellation is cooperative and all-or-nothing: a query either
  /// completes with its full bit-identical answer or returns no result at
  /// all, so deadlines never change any completed answer.
  double default_deadline_ms = 0.0;
  /// Admission control on the stream path (Submit): refuse work up front
  /// with kUnavailable (and a retry_after_ms hint in the message) instead of
  /// queueing unboundedly. RunBatch is exempt by design — batches are
  /// trusted pre-validated workloads whose caller already owns their size.
  bool enable_load_shedding = false;
  /// Queue depth at which the predictive gate starts shedding cheap-to-retry
  /// work (queries no cache can serve); 0 = shed only when the queue is
  /// completely full. Cache-servable queries are always admitted — they
  /// resolve in O(1) without a worker.
  size_t shed_queue_depth = 0;
  /// @}
  /// \name Crash-safe persistence (src/persist/; see src/engine/README.md,
  /// "Restart semantics")
  /// @{
  /// Directory for the checksummed snapshot + warm-state journal; empty (the
  /// default) disables persistence entirely. With a valid snapshot present,
  /// Create cold-starts in O(1) by mmapping the index sections instead of
  /// rebuilding; a corrupt or mismatched snapshot degrades to
  /// rebuild-from-source (detected, counted, never fatal) and a fresh
  /// snapshot is published for the next restart. Create always replays the
  /// warm-state journal into the caches; a record journaled under another
  /// configuration is skipped, never served. Answers are bit-identical
  /// either way: restored artifacts feed the same content-derived seed
  /// machinery as freshly built ones.
  std::string persist_dir;
  /// Period in seconds of the warm-state flush (cache exports appended to
  /// the journal, then fsynced), run on a dedicated flusher thread; 0
  /// disables it (FlushWarmState can still be called manually). A final
  /// flush always runs at engine destruction.
  double persist_flush_seconds = 1.0;
  /// @}
  /// \name Observability (see src/obs/README.md)
  /// Tracing is never part of the determinism contract: answers are
  /// bit-identical with any sample rate, at any thread count.
  /// @{
  /// Fraction of queries whose span trees are published to the trace ring
  /// (deterministic in the query id; 1 traces everything). 0 — the default —
  /// plus slow_query_ms == 0 disengages tracing entirely: the hot path then
  /// allocates nothing and records no spans.
  double trace_sample_rate = 0.0;
  /// Queries slower than this many milliseconds get their span tree
  /// formatted into the tracer's slow-query log, sampled or not. 0 disables
  /// the log.
  double slow_query_ms = 0.0;
  /// @}
  /// Estimator construction knobs (index parameters, index seed).
  FactoryOptions factory;
};

/// \brief The sampling plan a query runs under: the engine's static
/// (kind, num_samples, num_strata) knobs, the same for every query.
struct QueryPlan {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Sample budget K.
  uint32_t num_samples = 1000;
  /// Stratified partitioning S of the budget (see EngineOptions::num_strata).
  uint32_t num_strata = 1;
};

/// \brief Outcome of one engine query (any workload kind).
struct EngineResult {
  EngineQuery query;
  /// Per-query outcome. A non-OK status means this query's estimator call
  /// failed (or its workload is unsupported by the engine's estimator
  /// kind); the payload fields are meaningless then. Other queries in the
  /// same batch / stream cycle are unaffected.
  Status status;
  /// Scalar payload for st / distance queries.
  double reliability = 0.0;
  /// Ranked payload for top-k / reliable-set queries (decreasing
  /// reliability, ties toward smaller node ids, source excluded).
  std::vector<ReliableTarget> targets;
  uint32_t num_samples = 0;
  /// Seconds from dispatch on a worker to completion (0 for cache hits, which
  /// never reach a worker's estimator; wait time for coalesced queries).
  double seconds = 0.0;
  /// The derived per-query seed actually used.
  uint64_t seed = 0;
  bool cache_hit = false;
  /// True when this query shared an in-flight twin's computation instead of
  /// invoking an estimator itself (single-flight coalescing).
  bool coalesced = false;

  bool ok() const { return status.ok(); }
};

/// \brief Concurrent batch engine for the reliability workload family.
///
/// Executes batches (RunBatch) or a stream (Submit/Drain) of EngineQuerys —
/// s-t reliability, top-k, reliable-set, and distance-constrained queries in
/// one mixed pipeline — on a fixed thread pool. Each worker owns a private
/// estimator replica (Estimator instances are not thread-safe);
/// index-carrying replicas share one immutable index. Every query's seed is
/// derived from the master seed and the query's content (workload tag
/// included) — so a batch returns bit-identical results whether it runs on 1
/// thread or 16, with the cache and coalescing on or off, and engine top-k /
/// reliable-set answers match the standalone TopKReliableTargets* /
/// ReliableSet* APIs exactly. See src/engine/README.md for the contract.
///
/// Thread-safe: concurrent RunBatch/Submit/Drain calls from multiple client
/// threads are safe and share the pool, cache, and cumulative stats.
/// Failures are per-query: each EngineResult carries its own Status, so one
/// estimator failure never discards the rest of a batch or stream cycle.
class QueryEngine {
 public:
  /// Builds the pool and one estimator replica per worker. Index-carrying
  /// kinds build their index exactly once and share it across replicas
  /// (deterministic, so replicas are interchangeable).
  static Result<std::unique_ptr<QueryEngine>> Create(
      const UncertainGraph& graph, const EngineOptions& options);

  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `queries` (any workload mix) and returns results in input
  /// order. Malformed queries (nodes outside the graph, k = 0, eta outside
  /// [0, 1]) fail the whole batch up front (first error wins) — batches are
  /// meant to be pre-validated workloads. Estimator failures during
  /// execution do NOT fail the batch: they land in the corresponding
  /// EngineResult::status.
  Result<std::vector<EngineResult>> RunBatch(
      const std::vector<EngineQuery>& queries);

  /// s-t convenience: wraps each pair as an EngineQuery (WorkloadKind::kSt).
  Result<std::vector<EngineResult>> RunBatch(
      const std::vector<ReliabilityQuery>& queries);

  /// Stream interface: enqueues one query (blocking while the work queue is
  /// full) for asynchronous execution.
  Status Submit(const EngineQuery& query);
  Status Submit(const ReliabilityQuery& query) {
    return Submit(EngineQuery(query));
  }

  /// Waits for every Submit()ted query to finish and returns their results
  /// in submission order, clearing the stream buffer. Estimator failures
  /// surface in the per-result Status; finished answers are never discarded.
  Result<std::vector<EngineResult>> Drain();

  /// Derived seed for `query` under this engine's configuration; exposed so
  /// callers can reproduce any single engine answer with a bare estimator
  /// (or the standalone top-k / reliable-set / distance APIs).
  ///
  /// Sweep kinds (top-k, reliable-set) get the *sweep seed* of their source
  /// — derived from (source, estimator kind, sample budget) but NOT from k,
  /// eta, or the workload tag — so every sweep-kind query over one source
  /// shares one seed, and therefore one per-source sweep (the sweep-sharing
  /// contract). St / distance seeds fold every query field as before.
  uint64_t QuerySeed(const EngineQuery& query) const;

  /// The per-source sweep seed (see QuerySeed). `SweepSeed(s)` ==
  /// `QuerySeed(q)` for every sweep-kind q with source s.
  uint64_t SweepSeed(NodeId source) const;
  uint64_t QuerySeed(const ReliabilityQuery& query) const {
    return QuerySeed(EngineQuery(query));
  }

  /// Seed the engine passes to Estimator::PrepareForNextQuery before
  /// estimating `query` (a tagged derivative of QuerySeed); with QuerySeed
  /// this fully reproduces an engine answer on a bare estimator.
  uint64_t PrepareSeed(const EngineQuery& query) const;
  uint64_t PrepareSeed(const ReliabilityQuery& query) const {
    return PrepareSeed(EngineQuery(query));
  }

  /// The sampling plan `query` runs under: the static knobs (kind,
  /// num_samples, num_strata), whatever the query. With QuerySeed and
  /// PrepareSeed this fully reproduces an engine answer on a bare estimator.
  QueryPlan PlanFor(const EngineQuery& /*query*/) const {
    return QueryPlan{options_.kind, options_.num_samples, options_.num_strata};
  }

  const EngineOptions& options() const { return options_; }
  size_t num_threads() const { return pool_->num_threads(); }
  /// nullptr when the cache is disabled.
  const ResultCache* cache() const { return cache_.get(); }
  /// nullptr when sweep memoization is disabled.
  const SweepCache* sweep_cache() const { return sweep_cache_.get(); }
  /// nullptr when the prebuilder is off or the estimator kind has no
  /// prepared-generation support.
  const GenerationPrebuilder* prebuilder() const { return prebuilder_.get(); }
  /// Deduplicated resident index footprint of the replica set (a shared
  /// index is counted once, not once per replica) plus the prebuilder's
  /// ready pool of spare generations (IndexMemoryReport::prebuilt_bytes).
  IndexMemoryReport IndexMemory() const;
  /// Resets the engine_* instruments EngineStats owns (see EngineStats::Reset).
  void ResetStats() { stats_.Reset(); }

  /// Engine-wide instrument registry, the engine's only stats account: the
  /// stats recorder, both caches, the pool, the stage histograms, the store
  /// and the prebuilder all record into it, cumulatively
  /// since construction, so one ExportJson() / ExportText() scrape reports
  /// everything the engine measures.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Per-query tracing sink: the span ring (trace_sample_rate) and the
  /// slow-query log (slow_query_ms).
  obs::Tracer& tracer() const { return *tracer_; }

  /// \name Crash-safe persistence (EngineOptions::persist_dir)
  /// @{
  /// What Create recovered at startup; all-false/zero when persistence is
  /// off. `snapshot_restored` means the index artifacts came from the mmap'd
  /// snapshot (O(1) cold start) instead of a rebuild.
  struct WarmRestoreReport {
    bool snapshot_restored = false; ///< indexes restored from the snapshot
    bool torn_tail = false;         ///< journal ended in a torn frame
    uint64_t sweep_entries = 0;     ///< sweeps folded back into the cache
    uint64_t result_entries = 0;    ///< results folded back into the cache
    /// Records skipped: of an unknown type, undecodable, or journaled for
    /// another graph, index configuration, stratum count, kind, budget or
    /// master seed.
    uint64_t skipped = 0;
  };
  const WarmRestoreReport& warm_restore_report() const { return warm_report_; }

  /// Writes and atomically publishes a snapshot of the graph plus the
  /// current shared index (if the estimator kind carries one).
  /// FailedPrecondition without persist_dir.
  Status PersistSnapshot();

  /// Exports the warm caches into the journal and fsyncs it — the operation
  /// the background flusher runs every persist_flush_seconds. Idempotent
  /// per entry (already-journaled keys are skipped). FailedPrecondition
  /// without persist_dir.
  Status FlushWarmState();

  /// nullptr when persistence is off.
  const PersistentStore* persist_store() const { return store_.get(); }
  /// @}

 private:
  /// `registry` and `store` are created in Create (the store needs the
  /// registry for its recovery counters *before* replicas exist, so the
  /// snapshot restore they feed into is counted).
  QueryEngine(const UncertainGraph& graph, EngineOptions options,
              std::unique_ptr<obs::MetricsRegistry> registry,
              std::unique_ptr<PersistentStore> store,
              std::vector<std::unique_ptr<Estimator>> replicas);

  /// Per-call completion state, shared only by that call's worker tasks:
  /// each call waits on its own counter instead of global pool idleness (so
  /// one client's endless stream cannot stall another's batch).
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    size_t pending = 0;  ///< tasks submitted but not yet finished
  };

  /// A query-level flight: the first worker to miss the cache for a key
  /// leads and computes; concurrent misses for the same key copy its value.
  struct QueryFlight : FlightState {
    ResultCacheValue value;  ///< carries the Status (negative on failure)
  };

  /// A sweep-level flight, run as a *stratum scheduler*: the first worker to
  /// need a source's sweep leads, but the sweep's S strata are a shared
  /// work-list — workers needing the same sweep under *different* query keys
  /// (other k, other eta, other workload kind) steal unclaimed strata instead
  /// of blocking on the leader. Each stratum is a canonical function of
  /// (sweep seed, stratum index), and the per-stratum hit counts merge in
  /// stratum order once every stratum has deposited, so the merged vector is
  /// bit-identical however the strata were distributed.
  struct SweepFlight : FlightState {
    /// The engine's S and K, fixed for the flight's lifetime.
    SweepFlight(uint32_t num_strata, uint32_t num_samples)
        : num_strata(num_strata),
          num_samples(num_samples),
          stratum_hits(num_strata) {}
    const uint32_t num_strata;
    const uint32_t num_samples;  ///< the total budget K: the merge divisor
    uint32_t next_stratum = 0;   ///< next unclaimed stratum
    uint32_t active = 0;         ///< claimed but not yet deposited
    uint32_t completed = 0;      ///< deposited strata (ok or failed)
    bool finalizing = false;     ///< one participant merges and publishes
    Timer timer;                 ///< leader start -> publish (sweep latency)
    /// Per-stratum hit counts, deposited by whichever worker ran each.
    std::vector<std::vector<uint32_t>> stratum_hits;
    /// The first preparer's generation (Estimator::CurrentPreparedGeneration)
    /// when the replica kind has prepared generations: later thieves adopt
    /// it through PrepareReplica in O(1) instead of re-running the same
    /// O(L·m) prepare. Dropped when the flight finishes, so the flight pins
    /// it no longer than its strata need it.
    std::shared_ptr<const PreparedGeneration> generation;
    Status status;  ///< first stratum / prepare failure wins
    size_t peak_memory_bytes = 0;
    SweepVector vector;
  };

  /// How a worker obtained a per-source sweep vector.
  struct SweepShare {
    SweepVector vector;
    /// The sweep's tracked working-set peak (max over every participant's
    /// strata) for flight participants — leaders and joiners alike, so the
    /// sweep's footprint is attributed to its queries even when the
    /// warm-ahead scout led it. 0 for SweepCache hits.
    size_t peak_memory_bytes = 0;
  };

  /// Executes one query on `worker_id`'s replica (or serves it from cache /
  /// an in-flight twin), writing outcome and per-query status into `slot`.
  /// `enqueue_ns` is the Submit-time stamp (the root span's begin and the
  /// queue-wait span's extent when the query is traced).
  ///
  /// The `trace` / parent-span parameters threaded through the methods below
  /// are nullptr / kNone for untraced queries; every span call no-ops then.
  void RunOne(size_t worker_id, const EngineQuery& query, EngineResult* slot,
              uint64_t enqueue_ns);

  /// Compute path of one query (after the cache / query-level flight said
  /// miss): sweep kinds go through the sweep-sharing layer, everything else
  /// through PrepareReplica + DispatchWorkload.
  /// `cancel` (nullable) is the query's deadline/cancellation token, polled
  /// cooperatively by the estimator loops and the flight machinery below.
  Result<WorkloadResult> ComputeWorkload(size_t worker_id,
                                         const EngineQuery& query,
                                         uint64_t query_seed,
                                         const CancelToken* cancel,
                                         obs::TraceBuffer* trace,
                                         uint32_t parent);

  /// Obtains the sweep vector of `key` (SweepKeyFor a source): from the
  /// SweepCache, by joining a sweep-level flight (stealing unclaimed strata,
  /// then waiting for the merge), or by leading one — publishing to the
  /// SweepCache and the flight's participants. Records exactly one of
  /// sweep_hit / sweep_coalesced / sweep_executed per call.
  Result<SweepShare> GetSweepVector(size_t worker_id, const SweepCacheKey& key,
                                    const CancelToken* cancel,
                                    obs::TraceBuffer* trace, uint32_t parent);

  /// Participates in `flight`: claims and executes unclaimed strata on this
  /// worker's replica (preparing it once, on the first claim), deposits
  /// their hit counts, and — if this worker drains the last stratum —
  /// merges in stratum order, publishes to the SweepCache, retires the
  /// flight entry, and wakes everyone. `leader` controls the strata_stolen
  /// accounting.
  ///
  /// Cancellation (`cancel` non-null and tripped) has two deterministic
  /// shapes, decided under the flight lock:
  /// - other participants are still executing (or all strata are claimed):
  ///   this participant *abandons* — returns its token's transient status
  ///   without waiting; the flight lives on and completes normally for
  ///   everyone else.
  /// - this participant is the last active one and unclaimed strata remain:
  ///   without it the flight could stall on waiters with no workers, so it
  ///   fails the flight *as a unit* (flight->status = the token's status)
  ///   and drains it through the normal finalize path — every waiter wakes
  ///   with the same transient status, no torn vector is ever published.
  /// OK means the flight reached `ready` (flight->status tells how it
  /// ended); non-OK is the abandoning participant's own transient status.
  Status RunSweepFlight(size_t worker_id, const SweepCacheKey& key,
                        const std::shared_ptr<SweepFlight>& flight, bool leader,
                        const CancelToken* cancel, obs::TraceBuffer* trace,
                        uint32_t parent);

  /// Serial sweep for the coalescing-off path: one EstimateFromSource with
  /// the engine's stratum count (bit-identical to a stolen-strata merge).
  Result<SweepShare> ComputeSweepSerial(size_t worker_id,
                                        const SweepCacheKey& key,
                                        const CancelToken* cancel,
                                        obs::TraceBuffer* trace,
                                        uint32_t parent);

  /// Warm-ahead scout task for `source`: if its sweep is neither memoized
  /// nor in flight, leads a stratified sweep through the same single-flight
  /// protocol queries use (the queries it outran steal its strata / derive
  /// from its vector). Best-effort and semantically invisible.
  void ScoutSweep(size_t worker_id, NodeId source);

  /// True when scout warm tasks make sense under the current configuration.
  bool ScoutingEnabled() const {
    return options_.enable_sweep_scout && options_.enable_coalescing &&
           sweep_cache_ != nullptr && sweep_capable_;
  }

  /// The cache keys `query` (and `source`'s sweep) are stored under: the
  /// plan's kind and budget plus the derived seed.
  ResultCacheKey ResultKeyFor(const EngineQuery& query) const;
  SweepCacheKey SweepKeyFor(NodeId source) const;

  /// Enqueues scout warm tasks for the most frequent sweep sources of
  /// `queries` (frequency >= 2, capped at kScoutMaxSources), ahead of the
  /// batch's own tasks in the pool's FIFO.
  void ScoutBatch(const std::vector<EngineQuery>& queries);

  /// Re-arms `estimator` for a query with `prepare_seed`, bit-identically
  /// whichever way: adopts `generation` (a sweep flight's, prepared for the
  /// same seed) when given, else a prebuilt generation when the background
  /// prebuilder has one ready, else runs the inline PrepareForNextQuery.
  Status PrepareReplica(
      Estimator& estimator, uint64_t prepare_seed,
      std::shared_ptr<const PreparedGeneration> generation = nullptr);

  /// Hands `query`'s prepare seed to the background builder — unless a
  /// cache will serve the query anyway (ServableFromCache). prebuilder_ must
  /// be non-null.
  void RequestPrebuild(const EngineQuery& query);

  /// Cache lookup + single-flight rendezvous for `key`. Returns true when
  /// `slot` was fully served (cache hit — positive or negative — or
  /// coalesced); otherwise the caller is the leader (or coalescing is off)
  /// and must compute, then call FinishFlight with the outcome.
  /// `cancel` (nullable) bounds the coalesced-follower wait: a follower
  /// whose token trips stops waiting and fails with the token's transient
  /// status (counted as a failure, not coalesced); the flight completes
  /// normally for everyone else.
  bool TryServeWithoutCompute(const ResultCacheKey& key, EngineResult* slot,
                              std::shared_ptr<QueryFlight>* leader_flight,
                              const CancelToken* cancel,
                              obs::TraceBuffer* trace, uint32_t parent);

  /// Load-shedding admission gate for the stream path (Submit): OK admits;
  /// kUnavailable (with a retry_after_ms hint) sheds. Shed queries never
  /// enter the engine, so they are invisible to the query-partition
  /// invariant (executed + coalesced + failures + cache hits == queries).
  Status AdmitQuery(const EngineQuery& query);

  /// True when `query` will resolve from the result or sweep cache without
  /// occupying a worker — such queries are always admitted under overload.
  bool ServableFromCache(const EngineQuery& query) const;

  /// Periodic flusher body: sleeps persist_flush_seconds between
  /// FlushWarmState rounds, run on the flusher thread, until shutdown.
  void FlusherLoop();

  /// Replays the warm journal into the caches (Create-time). A record is
  /// folded back only when it carries this engine's journal_digest_ and its
  /// key re-derives from this engine's plan and seeds.
  void RestoreWarmState();

  /// Publishes the leader's outcome: inserts into the cache (successes with
  /// no TTL, failures under negative_cache_ttl when enabled), retires the
  /// flight, and wakes the waiters.
  void FinishFlight(const ResultCacheKey& key, QueryFlight& flight,
                    const ResultCacheValue& value);

  /// Cache insertion policy shared by the leader and non-coalescing paths.
  void PublishToCache(const ResultCacheKey& key, const ResultCacheValue& value);

  /// Moves a cached / in-flight payload (and its status) into `slot`. Pass
  /// a copy when the source is shared (a flight value read by many
  /// followers); pass an expiring lookup result to skip the targets copy.
  static void FillFromValue(ResultCacheValue value, EngineResult* slot);

  /// Blocks until every task accounted to `state` has finished.
  static void AwaitCall(CallState& state);

  const UncertainGraph& graph_;
  const EngineOptions options_;
  /// Declared before every component that records into it (stats, caches,
  /// pool, prebuilder), so it is destroyed last: workers may still record
  /// while the pool drains during shutdown.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Crash-safe persistence root; nullptr when persist_dir is empty.
  /// Declared right after the registry (its counters) and before everything
  /// that may journal into it during shutdown.
  std::unique_ptr<PersistentStore> store_;
  std::vector<std::unique_ptr<Estimator>> replicas_;
  /// The estimator kind answers source sweeps.
  bool sweep_capable_ = false;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  EngineStats stats_;

  /// Always-on stage latency histograms, one labeled family
  /// (engine_stage_latency_ns{stage=...}); the queue_wait member of the
  /// family is recorded inside the pool.
  obs::Histogram* stage_cache_probe_;
  obs::Histogram* stage_prepare_;
  obs::Histogram* stage_stratum_;
  obs::Histogram* stage_merge_;
  obs::Histogram* stage_publish_;
  obs::Histogram* stage_derive_;
  obs::Histogram* stage_sweep_wait_;

  /// The two single-flight tables. A query-level leader may wait on (or
  /// steal strata of) a sweep flight, never the other way around, so the
  /// wait graph is a depth-2 DAG with no cycles.
  FlightTable<ResultCacheKey, QueryFlight> query_flights_;
  FlightTable<SweepCacheKey, SweepFlight> sweep_flights_;

  /// Memoized per-source sweeps; nullptr when disabled.
  std::unique_ptr<SweepCache> sweep_cache_;
  /// Background generation builder; nullptr when off / unsupported. Declared
  /// after replicas_ so it is destroyed (thread joined) before they are.
  std::unique_ptr<GenerationPrebuilder> prebuilder_;

  /// \name Warm-state journaling (guarded by journal_mutex_)
  /// @{
  std::mutex journal_mutex_;
  /// Key hashes already appended to the journal this process lifetime —
  /// the journal is append-only, so each warm entry is journaled once (its
  /// value is content-derived, so a re-insert carries the same bits).
  std::unordered_set<uint64_t> journaled_sweeps_;
  std::unordered_set<uint64_t> journaled_results_;
  /// WarmJournalDigest of this engine (graph, index configuration, S),
  /// stamped on every journal record; computed only when persist_dir is set
  /// (0 otherwise), before the flusher thread starts.
  const uint64_t journal_digest_;
  WarmRestoreReport warm_report_;
  /// Periodic flusher thread (persist_flush_seconds); stopped first in the
  /// destructor, before the pool shuts down.
  std::thread flusher_;
  std::mutex flusher_mutex_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
  /// @}

  std::mutex stream_mutex_;
  std::vector<std::unique_ptr<EngineResult>> stream_results_;
  std::shared_ptr<CallState> stream_state_;
  Timer stream_timer_;  ///< restarted on the first Submit of a stream cycle
  /// Per-stream-cycle sweep-source frequencies (guarded by stream_mutex_,
  /// cleared on Drain): the second submission of a source in one cycle
  /// triggers a scout warm task ahead of that query.
  std::unordered_map<NodeId, uint32_t> stream_sweep_counts_;
};

}  // namespace relcomp
