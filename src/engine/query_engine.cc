#include "engine/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"

namespace relcomp {

namespace {
/// Domain separator so the PrepareForNextQuery seed never equals the
/// Estimate seed for the same query.
constexpr uint64_t kPrepareSeedTag = 0x707265ULL;  // "pre"
/// Domain separator for per-source sweep seeds, so a sweep seed can never
/// alias an st/distance query seed structurally.
constexpr uint64_t kSweepSeedTag = 0x73776570ULL;  // "swep"

/// Result-cache shards: concurrent lookups of different keys mostly take
/// different locks.
constexpr size_t kResultCacheShards = 8;
/// Threads that help fill inline prepares' coin passes.
constexpr size_t kCoinPassHelpers = 2;

/// True when `status` is the deadline/cancellation family — the failures
/// that also count in engine_deadline_exceeded_total.
bool IsCancellation(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

/// Scoped pipeline-stage recorder: always lands the elapsed nanoseconds in
/// the stage histogram (when given), and additionally opens a matching span
/// when the query is traced — one timestamp pair feeds both, so the span
/// tree and the histogram never disagree about a stage's extent.
class StageTimer {
 public:
  StageTimer(obs::Histogram* histogram, obs::TraceBuffer* trace,
             obs::SpanKind kind, uint32_t parent, uint32_t detail = 0)
      : histogram_(histogram),
        trace_(trace),
        begin_ns_(StopwatchNs::Now()),
        span_(trace == nullptr
                  ? obs::TraceBuffer::kNone
                  : trace->BeginAt(kind, begin_ns_, parent, detail)) {}

  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Ends the stage early (idempotent; the destructor calls it).
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    const uint64_t end_ns = StopwatchNs::Now();
    if (histogram_ != nullptr) histogram_->Record(end_ns - begin_ns_);
    if (trace_ != nullptr) trace_->EndAt(span_, end_ns);
  }

  /// Id for nesting children under this stage's span (kNone when untraced).
  uint32_t id() const { return span_; }

 private:
  obs::Histogram* histogram_;
  obs::TraceBuffer* trace_;
  uint64_t begin_ns_;
  uint32_t span_;
  bool stopped_ = false;
};

}  // namespace

QueryEngine::QueryEngine(const UncertainGraph& graph, EngineOptions options,
                         std::unique_ptr<obs::MetricsRegistry> registry,
                         std::unique_ptr<PersistentStore> store,
                         std::vector<std::unique_ptr<Estimator>> replicas)
    : graph_(graph),
      options_(std::move(options)),
      registry_(std::move(registry)),
      tracer_(std::make_unique<obs::Tracer>(obs::TracerOptions{
          options_.trace_sample_rate, options_.slow_query_ms})),
      store_(std::move(store)),
      replicas_(std::move(replicas)),
      capabilities_(replicas_.front()->capabilities()),
      cache_(options_.cache_capacity, kResultCacheShards,
             options_.cache_max_bytes, registry_.get()),
      sweep_cache_(SweepCache::kNoEntryLimit, /*num_shards=*/1,
                   options_.sweep_cache_max_bytes, registry_.get()),
      stats_(*registry_) {
  stage_cache_probe_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "cache_probe");
  stage_prepare_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "prepare");
  stage_estimate_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "estimate");
  stage_stratum_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "stratum");
  stage_merge_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "merge");
  stage_publish_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "publish");
  stage_derive_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "derive");
  stage_sweep_wait_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "sweep_wait");
  if (capabilities_.prepared_generations) {
    coin_pass_helpers_ =
        std::make_unique<CoinPassHelpers>(*registry_, kCoinPassHelpers);
  }
  pool_ = std::make_unique<ThreadPool>(
      options_.num_threads, options_.queue_capacity,
      registry_->GetHistogram("engine_stage_latency_ns", "stage",
                              "queue_wait"));
  // Storage-footprint gauges: actual resident bytes of the graph's selected
  // layout, labeled by layout so raw/compact engines are comparable side by
  // side in one exported snapshot.
  registry_->GetGauge("graph_memory_bytes")
      ->Set(static_cast<double>(graph_.MemoryBytes()));
  registry_
      ->GetGauge("graph_bytes_per_edge", "layout",
                 StorageLayoutName(graph_.layout()))
      ->Set(graph_.num_edges() == 0
                ? 0.0
                : static_cast<double>(graph_.MemoryBytes()) /
                      static_cast<double>(graph_.num_edges()));
}

QueryEngine::~QueryEngine() { pool_->Shutdown(); }

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const UncertainGraph& graph, const EngineOptions& options) {
  EngineOptions opts = options;
  if (opts.num_threads == 0) opts.num_threads = 1;
  if (opts.num_strata == 0) opts.num_strata = 1;
  if (opts.num_samples == 0) {
    return Status::InvalidArgument("EngineOptions::num_samples must be > 0");
  }
  // A BFS Sharing budget above the L worlds a generation stores would fail
  // every s != t query after a full O(L·m) prepare.
  if (opts.kind == EstimatorKind::kBfsSharing &&
      opts.num_samples > opts.factory.bfs_sharing.index_samples) {
    return Status::InvalidArgument(
        StrFormat("EngineOptions::num_samples K=%u exceeds the BFS Sharing "
                  "index's L=%u worlds",
                  opts.num_samples, opts.factory.bfs_sharing.index_samples));
  }
  // The registry exists before anything else so the persistence tier's
  // recovery counters capture the snapshot restore that happens *before*
  // the engine object does.
  auto registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<PersistentStore> store;
  bool snapshot_restored = false;
  // Only an index is worth a snapshot: a restarted engine recomputes any
  // answer from (query, plan, seed) at its usual cost, but an index build
  // is the one cost a restart would otherwise pay up front.
  if (!opts.persist_dir.empty() && HasSharedIndex(opts.kind)) {
    RELCOMP_ASSIGN_OR_RETURN(store,
                             PersistentStore::Open(opts.persist_dir,
                                                   registry.get()));
    // Hand the factory the snapshot's index so the replica build below
    // restores instead of rebuilding. An absent, corrupt, version-refused,
    // or mismatched snapshot, or one without this kind's index, leaves it
    // null — the factory then rebuilds from source, bit-identically, and
    // the rebuilt index is published below.
    opts.factory.preloaded_prob_tree =
        store->OpenSnapshot(graph, opts.factory).prob_tree;
    snapshot_restored = opts.factory.preloaded_prob_tree != nullptr;
    store->CountRecovered(snapshot_restored);
  }
  // One shared immutable index for all ProbTree replicas (built inside the
  // factory), private scratch per replica. BFS Sharing replicas start with
  // no generation; they know the budget, so each prepares only the worlds
  // it reads.
  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<Estimator>> replicas,
      MakeEstimatorReplicas(opts.kind, graph, opts.num_threads, opts.factory,
                            opts.num_samples));
  // The preloaded index was consumed by the replica build; the engine keeps
  // its options free of it.
  opts.factory.preloaded_prob_tree.reset();
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(graph, std::move(opts), std::move(registry),
                      std::move(store), std::move(replicas)));
  if (engine->store_ != nullptr && !snapshot_restored) {
    // Best effort: a failed snapshot write (disk full, injected fault) only
    // costs the next restart its O(1) cold start.
    (void)engine->PersistSnapshot();
  }
  return engine;
}

Status QueryEngine::PersistSnapshot() {
  // A store exists only for the ProbTree kinds (HasSharedIndex).
  const auto* prob_tree =
      dynamic_cast<const ProbTreeEstimator*>(replicas_.front().get());
  return store_->WriteSnapshot(
      graph_, options_.factory,
      prob_tree == nullptr ? nullptr : prob_tree->shared_index().get());
}

uint64_t QueryEngine::QuerySeed(const EngineQuery& query) const {
  // Content-derived, not index-derived: the seed depends on what is asked,
  // never on when or where it runs. Repeats of a query inside one engine get
  // the same seed (and thus the same answer), which is exactly what makes a
  // cache hit — or a coalesced in-flight share — indistinguishable from a
  // recomputation.
  //
  // Sweep kinds deliberately coarsen "what is asked" to the source: top-k
  // and reliable-set answers are derived views of one per-source sweep, so
  // their seeds fold (source, kind, num_samples) but NOT k, eta, or the
  // workload tag. That is what lets top-k(s, 5), top-k(s, 10) and
  // reliable-set(s, eta) share one EstimateFromSource — and it keeps the
  // standalone-API equivalence exact, because the standalone helpers given
  // this seed run the identical sweep. num_strata is not folded: it splits
  // the budget, and the seed it splits is the same.
  if (IsSweepWorkload(query.workload)) return SweepSeed(query.source);
  uint64_t seed = HashWorkloadQuery(options_.seed, query);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(options_.kind));
  return HashCombineSeed(seed, options_.num_samples);
}

uint64_t QueryEngine::SweepSeed(NodeId source) const {
  uint64_t seed = HashCombineSeed(options_.seed, kSweepSeedTag);
  seed = HashCombineSeed(seed, source);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(options_.kind));
  return HashCombineSeed(seed, options_.num_samples);
}

uint64_t QueryEngine::PrepareSeed(const EngineQuery& query) const {
  return HashCombineSeed(QuerySeed(query), kPrepareSeedTag);
}

ResultCacheKey QueryEngine::ResultKeyFor(const EngineQuery& query) const {
  return ResultCacheKey{query, options_.kind, options_.num_samples,
                        QuerySeed(query)};
}

SweepCacheKey QueryEngine::SweepKeyFor(NodeId source) const {
  return SweepCacheKey{options_.kind, source, options_.num_samples,
                       SweepSeed(source)};
}

void QueryEngine::AwaitCall(CallState& state) {
  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.pending == 0; });
}

void QueryEngine::FillFromValue(ResultCacheValue value, EngineResult* slot) {
  slot->status = std::move(value.status);
  if (slot->status.ok()) {
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = std::move(value.targets);
  }
}

bool QueryEngine::TryServeWithoutCompute(
    const ResultCacheKey& key, EngineResult* slot,
    std::shared_ptr<QueryFlight>* leader_flight, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Fast path: lock-free-ish cache probe before touching the flight table.
  // Deliberately NOT gated on the cancel token: a cache hit costs O(1) and
  // an already-computed answer is strictly more useful than a deadline
  // error, even to a late caller.
  std::optional<ResultCacheValue> hit;
  {
    StageTimer probe(stage_cache_probe_, trace, obs::SpanKind::kCacheProbe,
                     parent, /*detail=*/0);
    hit = cache_.Lookup(key);
  }
  if (hit) {
    FillFromValue(std::move(*hit), slot);
    slot->seconds = 0.0;
    slot->cache_hit = true;
    stats_.RecordCacheHit();
    return true;
  }

  auto joined = query_flights_.JoinOrCreate(key, cache_);
  if (joined.cached) {
    // The leader finished between our fast-path miss and the re-probe: this
    // query shared a twin's computation. Accounted as *coalesced*, not a
    // cache hit — the fast-path miss is already in the cache stats, and
    // executed + coalesced + failures + cache.hits must equal queries.
    FillFromValue(std::move(*joined.cached), slot);
    slot->seconds = 0.0;
    slot->coalesced = true;
    stats_.RecordCoalesced(0.0);
    return true;
  }
  if (joined.leader) {
    *leader_flight = std::move(joined.flight);
    return false;  // we are the leader; compute and FinishFlight
  }

  // Follower: wait for the leader and copy its outcome. A follower whose
  // token trips stops waiting and fails with the token's status; the
  // leader's flight completes normally for everyone else.
  Timer wait_timer;
  bool ready = false;
  {
    obs::ScopedSpan wait_span(trace, obs::SpanKind::kCoalescedWait, parent);
    ready = query_flights_.Await(*joined.flight, cancel);
  }
  slot->seconds = wait_timer.ElapsedSeconds();
  if (!ready) {
    // Not coalesced: this query shared nothing — it gave up (the leader's
    // own publish is independent and unaffected).
    slot->status = cancel->ToStatus();
    stats_.RecordFailure(slot->seconds);
    stats_.RecordDeadlineExceeded();
    return true;
  }
  FillFromValue(joined.flight->value, slot);
  slot->coalesced = true;
  if (slot->status.ok()) {
    stats_.RecordCoalesced(slot->seconds);
  } else {
    stats_.RecordFailure(slot->seconds);
    // The leader's deadline expired before computing: its waiters failed on
    // the same deadline, and the classifier must agree with theirs.
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  return true;
}

void QueryEngine::FinishFlight(const ResultCacheKey& key, QueryFlight& flight,
                               const ResultCacheValue& value) {
  // The cache refuses a failure (CacheValueTraits), so the next miss of this
  // key recomputes it.
  query_flights_.Finish(
      key, flight, [&] { cache_.Insert(key, value); },
      [&](QueryFlight& settled) { settled.value = value; });
}

Status QueryEngine::PrepareReplica(
    Estimator& estimator, uint64_t prepare_seed,
    std::shared_ptr<const PreparedGeneration> generation) {
  if (generation != nullptr &&
      estimator.AdoptPreparedGeneration(std::move(generation)).ok()) {
    return Status::OK();
  }
  // Nothing to adopt, or adoption refused (shape mismatch — cannot happen
  // for replicas of this engine): the inline prepare is bit-identical. Its
  // coin pass runs on a pass the idle helpers help fill, which closes once
  // the prepare returns.
  CoinPassHelpers::InlinePass inline_pass(coin_pass_helpers_.get());
  return estimator.PrepareForNextQuery(prepare_seed, inline_pass.coins());
}

Status QueryEngine::RunSweepFlight(size_t worker_id, const SweepCacheKey& key,
                                   const std::shared_ptr<SweepFlight>& flight,
                                   bool leader, const CancelToken* cancel,
                                   obs::TraceBuffer* trace, uint32_t parent) {
  Estimator& estimator = *replicas_[worker_id];
  const uint64_t sweep_seed = key.seed;
  FaultInjector& injector = FaultInjector::Global();
  MemoryTracker tracker;
  bool prepared = false;
  bool abandoned = false;
  // Claim loop: leader and coalesced joiners alike pull unclaimed strata off
  // the shared work-list. Each stratum is a pure function of (sweep seed,
  // stratum index, S), so it does not matter who runs what.
  for (;;) {
    uint32_t stratum = 0;
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      if (cancel != nullptr && cancel->Cancelled() && flight->status.ok() &&
          !flight->ready) {
        // This participant's deadline fired mid-flight. If it is the only
        // participant and strata remain unclaimed, nobody else will drain
        // the flight: fail it as a unit (first failure wins; joiners get the
        // transient status and recompute deterministically later). If other
        // participants are active — or every stratum is already claimed —
        // the flight can finish without us: abandon it, leaving its state
        // untouched, and fail only this query.
        if (flight->active == 0 && flight->next_stratum < flight->num_strata) {
          flight->status = cancel->ToStatus();
        } else {
          abandoned = true;
        }
        break;
      }
      if (!flight->status.ok() ||
          flight->next_stratum >= flight->num_strata) {
        break;
      }
      stratum = flight->next_stratum++;
      ++flight->active;
    }
    Status run = Status::OK();
    if (injector.enabled()) {
      // Content-derived injection key: the stratum's own seed, identical at
      // any thread count and for any claimant, so the set of injected
      // strata is deterministic per sweep.
      const uint64_t stratum_key =
          StratumSeed(sweep_seed, stratum, flight->num_strata);
      injector.MaybeDelay(stratum_key);
      run = injector.MaybeFail(FaultSite::kEstimatorFailure, stratum_key,
                               "sweep stratum");
    }
    if (run.ok() && !prepared) {
      // H(sweep_seed, tag) == PrepareSeed(q) for every sweep-kind q over
      // this source. Every participant ends up reading bit-identical
      // worlds: the first preparer pays the full prepare and hands its
      // generation to the flight; later thieves adopt it in O(1) instead of
      // re-running the same O(L·m) resample per worker (MC, whose prepare is
      // a no-op, has no generations and just prepares directly).
      StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                               parent);
      std::shared_ptr<const PreparedGeneration> generation;
      {
        std::lock_guard<std::mutex> lock(flight->mutex);
        generation = flight->generation;
      }
      const bool first_preparer = generation == nullptr;
      run = PrepareReplica(estimator,
                           HashCombineSeed(sweep_seed, kPrepareSeedTag),
                           std::move(generation));
      if (run.ok() && first_preparer &&
          estimator.capabilities().prepared_generations) {
        Result<std::shared_ptr<const PreparedGeneration>> current =
            estimator.CurrentPreparedGeneration();
        std::lock_guard<std::mutex> lock(flight->mutex);
        if (current.ok() && flight->generation == nullptr) {
          flight->generation = current.MoveValue();
        }
      }
      prepared = run.ok();
    }
    std::vector<uint32_t> hits;
    if (run.ok()) {
      StageTimer stratum_stage(stage_stratum_, trace, obs::SpanKind::kStratum,
                               parent, stratum);
      EstimateOptions estimate_options;
      estimate_options.num_samples = flight->num_samples;
      estimate_options.seed = sweep_seed;
      estimate_options.num_strata = flight->num_strata;
      estimate_options.memory = &tracker;
      estimate_options.cancel = cancel;
      estimate_options.trace = trace;
      estimate_options.trace_parent = stratum_stage.id();
      Result<std::vector<uint32_t>> stratum_hits =
          estimator.EstimateSweepStratumHits(key.source, stratum,
                                             flight->num_strata,
                                             estimate_options);
      if (stratum_hits.ok()) {
        hits = stratum_hits.MoveValue();
      } else {
        run = stratum_hits.status();
      }
    }
    stats_.RecordStratum(/*stolen=*/!leader);
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      --flight->active;
      ++flight->completed;
      if (run.ok()) {
        flight->stratum_hits[stratum] = std::move(hits);
        if (tracker.peak_bytes() > flight->peak_memory_bytes) {
          flight->peak_memory_bytes = tracker.peak_bytes();
        }
      } else if (flight->status.ok()) {
        // First failure wins; it also stops further claims, so the flight
        // drains to a deterministic failure for every participant.
        flight->status = run;
      }
    }
    if (!run.ok()) break;
  }

  if (abandoned) {
    // The flight can drain without us (someone else is active, or every
    // stratum is claimed): leave it untouched — its eventual finalizer
    // publishes for the remaining participants — and fail only this query.
    // Deliberately skips the finalize check below: an abandoning
    // participant taking the finalizing token and then returning would
    // strand the real participants waiting forever.
    return cancel->ToStatus();
  }

  // Whoever observes the flight drained — all strata deposited, or failed
  // with no stratum still in execution — finalizes: merges, publishes, and
  // wakes everyone. That may be the leader or any thief; the merge itself is
  // order-fixed, so the finalizer's identity is invisible in the result.
  SweepVector vector;
  Status status;
  bool finalize = false;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    const bool drained =
        flight->active == 0 &&
        (!flight->status.ok() || flight->completed == flight->num_strata);
    if (drained && !flight->ready && !flight->finalizing) {
      flight->finalizing = true;
      finalize = true;
      status = flight->status;
      if (status.ok()) {
        // Deterministic merge in stratum order: per-node hit totals over the
        // fixed stratum slices, divided by the full budget K — bit-identical
        // to the serial stratified sweep regardless of which workers ran
        // which strata.
        StageTimer merge_stage(stage_merge_, trace, obs::SpanKind::kMerge,
                               parent);
        auto merged =
            std::make_shared<std::vector<double>>(graph_.num_nodes(), 0.0);
        std::vector<uint32_t> totals(graph_.num_nodes(), 0);
        for (const std::vector<uint32_t>& stratum_hits :
             flight->stratum_hits) {
          for (size_t v = 0; v < stratum_hits.size(); ++v) {
            totals[v] += stratum_hits[v];
          }
        }
        const double k = static_cast<double>(flight->num_samples);
        for (size_t v = 0; v < totals.size(); ++v) {
          (*merged)[v] = static_cast<double>(totals[v]) / k;
        }
        vector = std::move(merged);
      }
    }
  }
  if (finalize) {
    // Sweeps are published immortal and leave the SweepCache only by
    // byte-budget LRU eviction.
    sweep_flights_.Finish(
        key, *flight,
        [&] {
          if (status.ok()) sweep_cache_.Insert(key, vector);
          stats_.RecordSweepLatency(flight->timer.ElapsedSeconds());
        },
        [&](SweepFlight& settled) {
          settled.vector = std::move(vector);
          settled.generation.reset();
        });
    return Status::OK();
  }
  // Not the finalizer: some other participant is still executing a stratum
  // (or merging); wait for the publish. This terminates — the flight always
  // has at least one active participant until ready. A participant whose
  // token trips abandons the flight (same contract as above: the flight
  // itself is untouched).
  StageTimer wait_stage(stage_sweep_wait_, trace, obs::SpanKind::kSweepWait,
                        parent);
  if (!sweep_flights_.Await(*flight, cancel)) return cancel->ToStatus();
  return Status::OK();
}

Result<QueryEngine::SweepShare> QueryEngine::GetSweepVector(
    size_t worker_id, const SweepCacheKey& key, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Fast path: memoized sweep.
  std::optional<SweepVector> hit;
  {
    StageTimer probe_stage(stage_cache_probe_, trace,
                           obs::SpanKind::kCacheProbe, parent, /*detail=*/1);
    hit = sweep_cache_.Lookup(key);
  }
  if (hit) {
    stats_.RecordSweepHit();
    return SweepShare{std::move(*hit), 0};
  }
  auto joined = sweep_flights_.JoinOrCreate(
      key, sweep_cache_, options_.num_strata, options_.num_samples);
  if (joined.cached) {
    // The sweep finished between our fast-path miss and the re-probe: this
    // query shared its work (accounted as sweep_coalesced, not a hit — the
    // fast-path miss is already in the cache stats).
    stats_.RecordSweepCoalesced();
    return SweepShare{std::move(*joined.cached), 0};
  }
  const std::shared_ptr<SweepFlight>& flight = joined.flight;
  const bool leader = joined.leader;
  // One sweep_executed per sweep, recorded by its leader: the "<= 1
  // EstimateFromSource per distinct (source, generation)" gate currency.
  if (leader) stats_.RecordSweepExecuted();
  {
    obs::ScopedSpan flight_span(trace, obs::SpanKind::kSweepFlight, parent,
                                leader ? 1 : 0);
    const Status flight_status =
        RunSweepFlight(worker_id, key, flight, leader, cancel, trace,
                       flight_span.id());
    // Abandoned mid-flight (deadline): the flight publishes without us; do
    // not read its fields — fail this query with the transient status.
    if (!flight_status.ok()) return flight_status;
  }

  Status status;
  SweepVector vector;
  size_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    status = flight->status;
    vector = flight->vector;
    // Every participant derived from this sweep: attribute its working-set
    // peak to each of them.
    peak = flight->peak_memory_bytes;
  }
  if (!status.ok()) return status;
  if (!leader) {
    // A joiner — whether it stole strata or only waited — shared the
    // leader's sweep instead of running its own.
    stats_.RecordSweepCoalesced();
  }
  return SweepShare{std::move(vector), peak};
}

Result<WorkloadResult> QueryEngine::ComputeWorkload(
    size_t worker_id, const EngineQuery& query, uint64_t query_seed,
    const CancelToken* cancel, obs::TraceBuffer* trace, uint32_t parent) {
  // An unsupported (kind, workload) pair fails before any injected fault,
  // prepare or sweep: nothing would use what they cost.
  RELCOMP_RETURN_NOT_OK(CheckWorkloadSupported(capabilities_, query));
  Estimator& estimator = *replicas_[worker_id];
  if (IsSweepWorkload(query.workload)) {
    // Sweep sharing: obtain the per-source vector once (memoized, coalesced,
    // or computed) and derive this query's view of it. Bit-identical to a
    // direct dispatch because the seed is the same sweep seed either way.
    RELCOMP_ASSIGN_OR_RETURN(
        SweepShare share,
        GetSweepVector(worker_id, SweepKeyFor(query.source), cancel, trace,
                       parent));
    StageTimer derive_stage(stage_derive_, trace, obs::SpanKind::kDerive,
                            parent);
    WorkloadResult derived =
        DeriveFromSweep(query, *share.vector, options_.num_samples);
    if (share.peak_memory_bytes > derived.peak_memory_bytes) {
      derived.peak_memory_bytes = share.peak_memory_bytes;
    }
    return derived;
  }
  FaultInjector& injector = FaultInjector::Global();
  if (injector.enabled()) {
    // Content-derived key (the query seed): the set of injected queries is
    // the same at every thread count, so chaos runs are comparable.
    injector.MaybeDelay(query_seed);
    RELCOMP_RETURN_NOT_OK(injector.MaybeFail(FaultSite::kEstimatorFailure,
                                             query_seed, "estimate"));
  }
  {
    StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                             parent);
    RELCOMP_RETURN_NOT_OK(PrepareReplica(
        estimator, HashCombineSeed(query_seed, kPrepareSeedTag)));
  }
  EstimateOptions estimate_options;
  estimate_options.num_samples = options_.num_samples;
  estimate_options.seed = query_seed;
  // Stratified partitioning applies to every kind with a stratified core:
  // s-t MC estimates split their budget the same canonical way sweeps do
  // (estimators without one ignore the knob).
  estimate_options.num_strata = options_.num_strata;
  estimate_options.cancel = cancel;
  StageTimer estimate_stage(stage_estimate_, trace, obs::SpanKind::kEstimate,
                            parent);
  estimate_options.trace = trace;
  estimate_options.trace_parent = estimate_stage.id();
  return DispatchWorkload(estimator, query, estimate_options);
}

void QueryEngine::RunOne(size_t worker_id, const EngineQuery& query,
                         EngineResult* slot, uint64_t enqueue_ns) {
  // Tracing: a stack-allocated span collector, armed only when the tracer is
  // engaged — an untraced query allocates nothing and every span call below
  // no-ops on the null buffer. The root opens at the Submit-time stamp, so
  // it covers the queue wait the worker never saw.
  obs::TraceBuffer buffer;
  obs::TraceBuffer* trace = nullptr;
  uint32_t root = obs::TraceBuffer::kNone;
  if (tracer_->engaged()) {
    trace = &buffer;
    buffer.Start(tracer_->NextQueryId(), static_cast<uint32_t>(worker_id));
    root = buffer.BeginAt(obs::SpanKind::kQuery, enqueue_ns,
                          obs::TraceBuffer::kNone,
                          static_cast<uint32_t>(query.workload));
    // The wait is already over (we are running); the span just records it.
    buffer.End(buffer.BeginAt(obs::SpanKind::kQueueWait, enqueue_ns, root));
  }

  const ResultCacheKey key = ResultKeyFor(query);
  slot->query = query;
  slot->seed = key.seed;
  stats_.RecordWorkload(query.workload);

  // Deadline: per-query override, else the engine default; 0 = none. The
  // clock starts at Submit time (enqueue_ns), so queue wait counts against
  // the budget — a query that starved in the queue is already expired when
  // its worker picks it up. The token chains to any caller-provided handle,
  // so either source of cancellation trips it. An infinite or out-of-range
  // deadline means none at all.
  const double deadline_ms =
      query.deadline_ms > 0.0 ? query.deadline_ms : options_.default_deadline_ms;
  const uint64_t deadline = DeadlineAfter(enqueue_ns, deadline_ms * 1e-3);
  const CancelToken token(deadline, query.cancel);
  const CancelToken* cancel =
      (deadline != 0 || query.cancel != nullptr) ? &token : nullptr;

  std::shared_ptr<QueryFlight> flight;
  if (TryServeWithoutCompute(key, slot, &flight, cancel, trace, root)) {
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Pre-compute deadline check: the query may have expired while it queued
  // (or the caller cancelled before we got here). Fail it before burning an
  // estimator on an answer nobody wants. The leader still retires its
  // flight so waiters drain with the same transient status.
  if (cancel != nullptr && cancel->Cancelled()) {
    ResultCacheValue expired_value;
    expired_value.status = cancel->ToStatus();
    slot->status = expired_value.status;
    slot->seconds = 0.0;
    stats_.RecordFailure(0.0);
    stats_.RecordDeadlineExceeded();
    FinishFlight(key, *flight, expired_value);
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Leader: compute on this worker's replica.
  Timer timer;
  ResultCacheValue value;
  Result<WorkloadResult> result =
      ComputeWorkload(worker_id, query, key.seed, cancel, trace, root);
  if (result.ok()) {
    value.reliability = result->reliability;
    value.num_samples = result->num_samples;
    value.targets = std::move(result->targets);
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = value.targets;
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordExecuted(slot->seconds, result->peak_memory_bytes);
  } else {
    value.status = result.status();
    slot->status = result.status();
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordFailure(slot->seconds);
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  {
    StageTimer publish_stage(stage_publish_, trace, obs::SpanKind::kPublish,
                             root);
    FinishFlight(key, *flight, value);
  }
  if (trace != nullptr) {
    buffer.End(root);
    tracer_->Finish(buffer);
  }
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status valid = ValidateWorkload(graph_, queries[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrFormat("query %zu: %s", i, valid.message().c_str()));
    }
  }
  stats_.MarkCallStart();
  auto state = std::make_shared<CallState>();
  state->pending = queries.size();
  std::vector<EngineResult> results(queries.size());
  Timer wall;
  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery query = queries[i];
    EngineResult* slot = &results[i];
    const uint64_t enqueue_ns = StopwatchNs::Now();
    const Status submitted = pool_->Submit(
        [this, query, slot, state, enqueue_ns](size_t worker_id) {
          RunOne(worker_id, query, slot, enqueue_ns);
          std::lock_guard<std::mutex> lock(state->mutex);
          if (--state->pending == 0) state->done.notify_all();
        });
    if (!submitted.ok()) {
      {
        // The tasks from queries [i, n) never made it into the pool.
        std::lock_guard<std::mutex> lock(state->mutex);
        state->pending -= queries.size() - i;
        if (state->pending == 0) state->done.notify_all();
      }
      AwaitCall(*state);  // queued tasks hold `results` slot pointers
      stats_.MarkCallEnd();
      return submitted;
    }
  }
  AwaitCall(*state);
  stats_.AddWallTime(wall.ElapsedSeconds());
  stats_.MarkCallEnd();
  return results;
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<ReliabilityQuery>& queries) {
  std::vector<EngineQuery> wrapped;
  wrapped.reserve(queries.size());
  for (const ReliabilityQuery& query : queries) {
    wrapped.push_back(EngineQuery(query));
  }
  return RunBatch(wrapped);
}

Status QueryEngine::Submit(const EngineQuery& query) {
  RELCOMP_RETURN_NOT_OK(ValidateWorkload(graph_, query));
  // The pool submit happens under stream_mutex_ so a concurrent Drain either
  // sees this query fully enqueued (and waits for it) or not at all (next
  // cycle); a slot can never be mid-flight across a drain boundary.
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (stream_results_.empty()) {
    stream_timer_.Restart();
    stream_state_ = std::make_shared<CallState>();
  }
  stats_.MarkCallStart();
  stream_results_.push_back(std::make_unique<EngineResult>());
  EngineResult* slot = stream_results_.back().get();
  std::shared_ptr<CallState> state = stream_state_;
  {
    std::lock_guard<std::mutex> state_lock(state->mutex);
    ++state->pending;
  }
  const uint64_t enqueue_ns = StopwatchNs::Now();
  const Status submitted = pool_->Submit(
      [this, query, slot, state, enqueue_ns](size_t worker_id) {
        RunOne(worker_id, query, slot, enqueue_ns);
        std::lock_guard<std::mutex> state_lock(state->mutex);
        if (--state->pending == 0) state->done.notify_all();
      });
  if (!submitted.ok()) {
    stream_results_.pop_back();
    std::lock_guard<std::mutex> state_lock(state->mutex);
    --state->pending;
  }
  return submitted;
}

Result<std::vector<EngineResult>> QueryEngine::Drain() {
  // Detach the current stream cycle, then await its own counter: every
  // detached slot's task was accounted under stream_mutex_, so AwaitCall
  // covers all of them, Submits racing this Drain land in the next cycle
  // untouched, and another client's batch load cannot stall us.
  std::vector<std::unique_ptr<EngineResult>> pending;
  std::shared_ptr<CallState> state;
  Timer cycle_timer;
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    pending.swap(stream_results_);
    state = std::move(stream_state_);
    cycle_timer = stream_timer_;
  }
  if (state != nullptr) AwaitCall(*state);
  if (pending.empty()) return std::vector<EngineResult>{};
  stats_.AddWallTime(cycle_timer.ElapsedSeconds());
  stats_.MarkCallEnd();
  std::vector<EngineResult> results;
  results.reserve(pending.size());
  for (const std::unique_ptr<EngineResult>& result : pending) {
    results.push_back(*result);
  }
  return results;
}

}  // namespace relcomp
