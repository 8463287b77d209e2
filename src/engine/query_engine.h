#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "engine/engine_stats.h"
#include "engine/helper_pool.h"
#include "engine/single_flight.h"
#include "engine/thread_pool.h"
#include "engine/lru_cache.h"
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
  /// Worker threads; one estimator replica is built per worker, plus one
  /// per helper thread when helpers run strata (see num_strata). ProbTree
  /// replicas share one immutable index, built once, so a ProbTree engine's
  /// Create cost and index memory are O(1) in num_threads; each BFS Sharing
  /// replica prepares and holds a generation of its own.
  size_t num_threads = 4;
  /// Bounded work-queue depth; Submit() blocks while it is full
  /// (backpressure), its only overload behaviour.
  size_t queue_capacity = 1024;
  /// Which estimator answers the queries. Workload support varies by kind:
  /// every kind answers st; MC and BFS Sharing answer top-k / reliable-set
  /// sweeps; MC and RHH answer distance-constrained queries. An unsupported
  /// (kind, workload) pair fails that query (NotSupported), never the batch.
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Sample budget K per query. A BFS Sharing engine needs K <= the L worlds
  /// of its replicas' index; Create refuses a larger K (InvalidArgument).
  uint32_t num_samples = 1000;
  /// Stratified sample partitioning S: the budget K of every MC estimate is
  /// split into S fixed strata, each seeded from the query's content seed
  /// and its stratum index — so a result is a canonical function of (query
  /// content, S), never of thread count or scheduling. The strata of one
  /// query are a work-list that several threads claim from: in a sweep
  /// flight, coalesced waiters *steal unclaimed strata* instead of blocking,
  /// and with S > 1 an MC engine's helper threads claim the strata of its
  /// s-t estimates and sweep flights, each on a replica of its own. Every
  /// answer is bit-identical to running its strata back-to-back on one
  /// thread. S = 1 (the default) is the legacy unstratified path and starts
  /// no MC helper; serving deployments chasing tail latency set S to a small
  /// multiple of num_threads. Changing S changes MC results (by design — it
  /// is part of the query's sampling plan); BFS Sharing sweeps are
  /// stratified by world slices of one generation and are bit-identical for
  /// every S.
  uint32_t num_strata = 1;
  /// Master seed. Per-query seeds are derived from it and the query content
  /// (see README.md), so results are independent of thread count and
  /// scheduling order.
  uint64_t seed = 0;
  /// Result cache sizing. Only successful answers are cached, and each stays
  /// until LRU or byte-budget eviction: answers are content-deterministic,
  /// so an expiry would only recompute identical bits.
  size_t cache_capacity = 1 << 16;
  /// Byte budget for the result cache (0 = unlimited): entries are charged
  /// their real payload bytes — a top-k entry carrying k ranked targets
  /// costs ~k× an s-t scalar — and each shard evicts by bytes on top of the
  /// entry capacity. See ResultCache.
  size_t cache_max_bytes = 0;
  /// Byte budget for the sweep cache, which keeps the per-source
  /// reliability vector of top-k / reliable-set queries so later queries
  /// over the same source — any k, any eta — derive their answers without
  /// re-running the BFS (one sweep = num_nodes doubles).
  size_t sweep_cache_max_bytes = size_t{128} << 20;
  /// Deadline in milliseconds applied to every query that does not carry its
  /// own EngineQuery::deadline_ms; 0 = no default deadline. The clock starts
  /// at submission, so queue wait counts against it. An expired query fails
  /// with kDeadlineExceeded, and cancellation is cooperative and
  /// all-or-nothing: a query either completes with its full bit-identical
  /// answer or returns no result at all, so deadlines never change any
  /// completed answer (see README "Failure semantics & degraded modes").
  double default_deadline_ms = 0.0;
  /// Directory of the checksummed index snapshot (src/persist/; see
  /// src/engine/README.md, "Restart semantics"); empty (the default)
  /// disables it, and so does every kind but the ProbTree ones
  /// (HasSharedIndex): MC, RHH, RSS and LP+ have no index, and BFS Sharing
  /// builds no generation at Create. With a valid snapshot present, Create
  /// restores the ProbTree index from it instead of rebuilding; a corrupt or
  /// mismatched snapshot degrades to rebuild-from-source (detected, counted,
  /// never fatal) and a fresh snapshot is published for the next restart.
  /// Answers are bit-identical either way: the index is seed-free.
  std::string persist_dir;
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
/// estimator replica (Estimator instances are not thread-safe), and so does
/// each helper thread that runs strata; ProbTree replicas share one
/// immutable index. Every query's seed is
/// derived from the master seed and the query's content (workload tag
/// included) — so a batch returns bit-identical results whether it runs on 1
/// thread or 16, and engine top-k / reliable-set answers match the standalone TopKReliableTargets* /
/// ReliableSet* APIs exactly. See src/engine/README.md for the contract.
///
/// Thread-safe: concurrent RunBatch/Submit/Drain calls from multiple client
/// threads are safe and share the pool, cache, and cumulative stats.
/// Failures are per-query: each EngineResult carries its own Status, so one
/// estimator failure never discards the rest of a batch or stream cycle.
class QueryEngine {
 public:
  /// Builds the pool, one estimator replica per worker, and the helper
  /// threads with a replica each when they run strata. ProbTree kinds build
  /// their index exactly once and share it across replicas (deterministic,
  /// so replicas are interchangeable); BFS Sharing replicas start with no
  /// generation. InvalidArgument for num_samples = 0, or above a BFS Sharing
  /// index's L worlds.
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
  /// Never null.
  const ResultCache* cache() const { return &cache_; }
  /// Never null.
  const SweepCache* sweep_cache() const { return &sweep_cache_; }
  /// The helper threads: they help fill inline prepares' coin passes when
  /// the kind has prepared generations (BFS Sharing), and claim the strata
  /// of s-t estimates and sweep flights when it runs its s-t estimate one
  /// stratum at a time and S > 1 (MC). nullptr when neither holds.
  const HelperPool* helper_pool() const { return helpers_.get(); }
  /// Deduplicated resident index footprint of the replica set (a shared
  /// index is counted once, not once per replica).
  IndexMemoryReport IndexMemory() const { return ReportIndexMemory(replicas_); }
  /// Resets the engine_* instruments EngineStats owns (see EngineStats::Reset).
  void ResetStats() { stats_.Reset(); }

  /// Engine-wide instrument registry, the engine's only stats account: the
  /// stats recorder, both caches, the pool, the stage histograms, the store
  /// and the helper pool all record into it, cumulatively
  /// since construction, so one ExportJson() / ExportText() scrape reports
  /// everything the engine measures.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Per-query tracing sink: the span ring (trace_sample_rate) and the
  /// slow-query log (slow_query_ms).
  obs::Tracer& tracer() const { return *tracer_; }

  /// The snapshot store; nullptr when persistence is off or the kind has no
  /// shared index (HasSharedIndex).
  const PersistentStore* persist_store() const { return store_.get(); }

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
    ResultCacheValue value;  ///< carries the Status, non-OK on failure
  };

  /// Who runs a stratum of a work-list: the worker that owns it (an s-t
  /// estimate's worker, a sweep flight's leader), a worker that joined a
  /// sweep flight, or a helper thread.
  enum class Claimant { kOwner, kJoiner, kHelper };

  /// A sweep-level flight, run as a *stratum scheduler*: the first worker to
  /// need a source's sweep leads, but the sweep's S strata are a shared
  /// work-list — workers needing the same sweep under *different* query keys
  /// (other k, other eta, other workload kind) steal unclaimed strata instead
  /// of blocking on the leader, and so do idle helpers when they run strata
  /// (the leader lists the flight with the helper pool). Each stratum is a
  /// canonical function of (sweep seed, stratum index), and the per-stratum
  /// hit counts merge in stratum order once every stratum has deposited, so
  /// the merged vector is bit-identical however the strata were distributed.
  struct SweepFlight : FlightState, HelperPool::Pass {
    /// The flight of `key` in `engine`, under the engine's S and K, fixed
    /// for the flight's lifetime.
    SweepFlight(QueryEngine* engine, const SweepCacheKey& key,
                uint32_t num_strata, uint32_t num_samples)
        : engine(engine),
          key(key),
          num_strata(num_strata),
          num_samples(num_samples),
          stratum_hits(num_strata) {}
    /// A helper claims strata on its own replica (RunSweepFlight).
    void Help(size_t helper) override;
    QueryEngine* const engine;
    const SweepCacheKey key;
    const uint32_t num_strata;
    const uint32_t num_samples;  ///< the total budget K: the merge divisor
    uint32_t next_stratum = 0;   ///< next unclaimed stratum
    uint32_t active = 0;         ///< claimed but not yet deposited
    uint32_t completed = 0;      ///< deposited strata (ok or failed)
    bool finalizing = false;     ///< one participant merges and publishes
    Timer timer;                 ///< leader start -> publish (sweep latency)
    /// Per-stratum hit counts, deposited by whichever thread ran each (empty
    /// for a stratum with no samples).
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

  /// The strata of one s-t estimate as a work-list: the worker computing the
  /// query and any idle helper claim strata, each on its own replica, and
  /// their hit counts sum in any order. Helpers read the worker's cancel
  /// token through `options`, so the worker returns only once every claimed
  /// stratum is released (EstimateStOnHelpers).
  struct StStrata : HelperPool::Pass {
    StStrata(QueryEngine* engine, const ReliabilityQuery& query,
             const EstimateOptions& options)
        : engine(engine), query(query), options(options) {}
    /// A helper claims strata on its own replica (RunStStrata).
    void Help(size_t helper) override;
    QueryEngine* const engine;
    const ReliabilityQuery query;
    /// K, the query seed, S and the worker's cancel token; no trace (a trace
    /// buffer belongs to its worker) and no memory sink.
    const EstimateOptions options;
    std::mutex mutex;
    std::condition_variable released;  ///< signalled when `active` hits 0
    uint32_t next_stratum = 0;         ///< next unclaimed stratum
    uint32_t active = 0;               ///< claimed but not yet released
    uint32_t hits = 0;                 ///< sum over the released strata
    Status status;                     ///< first stratum failure wins
    size_t peak_memory_bytes = 0;      ///< max over the claimants
  };

  /// How a worker obtained a per-source sweep vector.
  struct SweepShare {
    SweepVector vector;
    /// The sweep's tracked working-set peak (max over every participant's
    /// strata) for flight participants — leaders and joiners alike. 0 for
    /// SweepCache hits.
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
  /// miss): a pair the kind cannot answer fails first, with no prepare
  /// (CheckWorkloadSupported); sweep kinds go through the sweep-sharing
  /// layer, everything else through PrepareReplica + DispatchWorkload.
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

  /// Participates in `flight`: claims and executes unclaimed strata on
  /// `estimator`, the claimant's own replica (preparing it once, on the
  /// first claim), deposits their hit counts, and — if this claimant drains
  /// the last stratum — merges in stratum order, publishes to the
  /// SweepCache, retires the flight entry, and wakes everyone. `claimant`
  /// controls the strata_stolen / strata_helped accounting. A helper
  /// (kHelper: no token, no trace) returns once nothing is left to claim
  /// instead of waiting for the publish.
  ///
  /// Cancellation (`cancel` non-null and tripped) has three deterministic
  /// shapes, decided under the flight lock:
  /// - other participants (workers or helpers) still hold strata: this
  ///   participant *abandons* — returns its token's transient status
  ///   without waiting; the flight lives on and completes normally for
  ///   everyone else.
  /// - this participant is the last active one and unclaimed strata remain:
  ///   without it the flight could stall on waiters with no workers, so it
  ///   fails the flight *as a unit* (flight.status = the token's status)
  ///   and drains it through the normal finalize path — every waiter wakes
  ///   with the same transient status, no torn vector is ever published.
  /// - every stratum is deposited: nobody else would finalize, so this
  ///   participant finalizes the complete sweep as usual.
  /// OK means the flight reached `ready` (flight.status tells how it
  /// ended); non-OK is the abandoning participant's own transient status.
  Status RunSweepFlight(Estimator& estimator, SweepFlight& flight,
                        Claimant claimant, const CancelToken* cancel,
                        obs::TraceBuffer* trace, uint32_t parent);

  /// The stratified s-t estimate of `query` (s != t) under `options`, its
  /// strata claimed by this worker on `estimator` and by idle helpers on
  /// theirs: bit-identical to Estimate on one replica. Returns once every
  /// claimed stratum is released.
  Result<WorkloadResult> EstimateStOnHelpers(Estimator& estimator,
                                             const ReliabilityQuery& query,
                                             const EstimateOptions& options);

  /// Claims and runs strata of `strata` on `estimator` until none is left
  /// (or one failed), adding their hits. `trace` / `parent` are the owner's
  /// (nullptr / kNone for a helper).
  void RunStStrata(StStrata& strata, Estimator& estimator, Claimant claimant,
                   obs::TraceBuffer* trace, uint32_t parent);

  /// Helper `helper`'s own replica, after the workers' ones.
  Estimator& HelperReplica(size_t helper) {
    return *replicas_[options_.num_threads + helper];
  }

  /// The cache keys `query` (and `source`'s sweep) are stored under: the
  /// plan's kind and budget plus the derived seed.
  ResultCacheKey ResultKeyFor(const EngineQuery& query) const;
  SweepCacheKey SweepKeyFor(NodeId source) const;

  /// Re-arms `estimator` for a query with `prepare_seed`, bit-identically
  /// either way: adopts `generation` (a sweep flight's, prepared for the
  /// same seed) when given, else runs the inline PrepareForNextQuery, for a
  /// kind with prepared generations on a coin pass the idle helpers help
  /// fill (HelperPool::InlinePass).
  Status PrepareReplica(
      Estimator& estimator, uint64_t prepare_seed,
      std::shared_ptr<const PreparedGeneration> generation = nullptr);

  /// Cache lookup + single-flight rendezvous for `key`. Returns true when
  /// `slot` was fully served (cache hit or coalesced); otherwise the caller
  /// leads `*leader_flight` and must compute, then call FinishFlight with
  /// the outcome.
  /// `cancel` (nullable) bounds the coalesced-follower wait: a follower
  /// whose token trips stops waiting and fails with the token's transient
  /// status (counted as a failure, not coalesced); the flight completes
  /// normally for everyone else.
  bool TryServeWithoutCompute(const ResultCacheKey& key, EngineResult* slot,
                              std::shared_ptr<QueryFlight>* leader_flight,
                              const CancelToken* cancel,
                              obs::TraceBuffer* trace, uint32_t parent);

  /// Writes and atomically publishes a snapshot of the shared index.
  Status PersistSnapshot();

  /// Publishes the leader's outcome: caches it when OK (a failure reaches
  /// only this flight's waiters), retires the flight, and wakes the waiters.
  void FinishFlight(const ResultCacheKey& key, QueryFlight& flight,
                    const ResultCacheValue& value);

  /// Moves a cached / in-flight payload (and its status) into `slot`. Pass
  /// a copy when the source is shared (a flight value read by many
  /// followers); pass an expiring lookup result to skip the targets copy.
  static void FillFromValue(ResultCacheValue value, EngineResult* slot);

  /// Blocks until every task accounted to `state` has finished.
  static void AwaitCall(CallState& state);

  const UncertainGraph& graph_;
  /// num_threads and num_strata are at least 1.
  const EngineOptions options_;
  /// Declared before every component that records into it (stats, caches,
  /// pool, coin-pass helpers), so it is destroyed last: workers may still
  /// record while the pool drains during shutdown.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Snapshot store; nullptr when persist_dir is empty or the kind has no
  /// shared index. Declared after the registry, which holds its counters.
  std::unique_ptr<PersistentStore> store_;
  /// One per worker (by worker id), then one per helper when helpers run
  /// strata (HelperReplica).
  std::vector<std::unique_ptr<Estimator>> replicas_;
  /// What the replicas' estimator kind answers beyond s-t.
  const EstimatorCapabilities capabilities_;
  /// Whether the helpers claim strata of s-t estimates and sweep flights.
  const bool strata_helpers_;
  ResultCache cache_;
  /// Memoized per-source sweeps.
  SweepCache sweep_cache_;
  std::unique_ptr<ThreadPool> pool_;
  EngineStats stats_;

  /// Always-on stage latency histograms, one labeled family
  /// (engine_stage_latency_ns{stage=...}); the queue_wait member of the
  /// family is recorded inside the pool.
  obs::Histogram* stage_cache_probe_;
  obs::Histogram* stage_prepare_;
  obs::Histogram* stage_estimate_;
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

  /// The helper threads (see helper_pool()); nullptr when they would have
  /// nothing to help. A helper writes into a replica's generation only
  /// inside an open coin pass, whose prepare waits out every claimed block
  /// before it returns (CoinPass::Finish), and reads a worker's cancel token
  /// only inside an s-t work-list the worker waits out. Declared after
  /// everything a helper touches, so it is destroyed first.
  std::unique_ptr<HelperPool> helpers_;

  std::mutex stream_mutex_;
  std::vector<std::unique_ptr<EngineResult>> stream_results_;
  std::shared_ptr<CallState> stream_state_;
  Timer stream_timer_;  ///< restarted on the first Submit of a stream cycle
};

}  // namespace relcomp
